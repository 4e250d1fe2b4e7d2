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

from .ad import forward_j, reverse_j
from .bench import (BenchmarkParams, build_example, build_example_program,
                    execute_program, initial_state, make_machine,
                    run_benchmark)
from .cps import CpsMachine
from .direct import StepCounter, eval_direct, run_program_direct
from .drivers import (DEFAULT_ALPHA, MIN_ALPHA, FixedSpace, FixedTime,
                      Logarithmic, RunConfig, checkpoint_reverse_binary,
                      checkpoint_reverse_bisect, checkpoint_reverse_treeverse,
                      criterion_name, eta, mid, parse_criterion, pick,
                      run_checkpoint, schedule_oracle)
from .errors import CkadError, EvalError, ParseError
from .extended import ExtendedMachine
from .metrics import CSV_COLUMNS, METER, RunMetrics
from .parser import Program, parse_expr, parse_program
from .values import BOTTOM, EMPTY, INFINITY, Capsule, Closure, Env, Pair

__version__ = "0.1.0"

__all__ = [
    "forward_j", "reverse_j",
    "BenchmarkParams", "build_example", "build_example_program",
    "execute_program", "initial_state", "make_machine", "run_benchmark",
    "CpsMachine", "ExtendedMachine",
    "StepCounter", "eval_direct", "run_program_direct",
    "DEFAULT_ALPHA", "MIN_ALPHA", "FixedSpace", "FixedTime", "Logarithmic",
    "RunConfig", "checkpoint_reverse_binary", "checkpoint_reverse_bisect",
    "checkpoint_reverse_treeverse", "criterion_name", "eta", "mid",
    "parse_criterion", "pick", "run_checkpoint", "schedule_oracle",
    "CkadError", "EvalError", "ParseError",
    "CSV_COLUMNS", "METER", "RunMetrics",
    "Program", "parse_expr", "parse_program",
    "BOTTOM", "EMPTY", "INFINITY", "Capsule", "Closure", "Env", "Pair",
    "__version__",
]
