"""A small functional language with nestable forward/reverse automatic
differentiation whose reverse operator transparently runs under
divide-and-conquer checkpointing.

Public surface:

* :mod:`ckad.parser` — the ``.cvl`` reader
* :mod:`ckad.direct` — the plain direct-style evaluator
* :mod:`ckad.cps` — the step-counting CPS interpreter (pipeline A) and
  ``Machine``, the host interface both pipelines share
* :mod:`ckad.extended` — CPS-converted code on a direct evaluator (pipeline B)
* :mod:`ckad.ad` — forward (dual numbers) and reverse (tape) modes, nestable
* :mod:`ckad.drivers` — checkpointing drivers, split strategies, criteria
* :mod:`ckad.metrics`, :mod:`ckad.bench`, :mod:`ckad.cli` — instrumentation,
  the synthetic benchmark, and the command-line interface
"""

__version__ = "0.1.0"

# each public name and the submodule that defines it; a name is imported
# on first access (PEP 562), so importing one submodule does not load the
# others
_EXPORTS = {
    "ad": ("forward_j", "reverse_j"),
    "bench": ("BenchmarkParams", "build_example", "build_example_program",
              "execute_program", "initial_state", "make_machine",
              "run_benchmark"),
    "cps": ("CpsMachine",),
    "direct": ("StepCounter", "eval_direct", "run_program_direct"),
    "drivers": ("DEFAULT_ALPHA", "MIN_ALPHA", "FixedSpace", "FixedTime",
                "Logarithmic", "RunConfig", "checkpoint_reverse_binary",
                "checkpoint_reverse_bisect", "checkpoint_reverse_treeverse",
                "criterion_name", "eta", "mid", "parse_criterion", "pick",
                "run_checkpoint", "schedule_oracle"),
    "errors": ("CkadError", "EvalError", "ParseError"),
    "extended": ("ExtendedMachine",),
    "metrics": ("CSV_COLUMNS", "METER", "RunMetrics"),
    "parser": ("Program", "parse_expr", "parse_program"),
    "values": ("BOTTOM", "EMPTY", "INFINITY", "Capsule", "Closure", "Env",
               "Pair"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__all__.append("__version__")


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
