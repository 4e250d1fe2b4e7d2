"""Spans around the package's public entry points, recorded from outside.

:class:`Tracer` replaces functions and methods of ``ckad`` by wrappers that
record one span per call: its name, start, end, parent span and the
operation it belongs to.  Nothing under ``src/`` is edited; the wrappers
are installed by assigning module attributes (for functions other modules
look up at call time, and for names they imported) and instance attributes
(for the machine's methods, which the drivers and the AD operators call
through the instance).  Spans stay in memory and are written out once, by
:meth:`Tracer.write`.

A span's self time is its duration minus the durations of its direct
children, so the self times of a tree add up to its root's duration.
"""

from __future__ import annotations

import time
from collections import defaultdict

MODULE_ENTRY_POINTS = [
    # (module, attribute, span name)
    ("ckad.parser", "parse_program", "parse_program"),
    ("ckad.convert", "convert_lambda", "convert_lambda"),
    ("ckad.convert", "convert_top", "convert_top"),
    ("ckad.extended", "convert_lambda", "convert_lambda"),
    ("ckad.extended", "convert_top", "convert_top"),
    ("ckad.ad", "map_structure", "map_structure"),
    ("ckad.ad", "collect_leaves", "collect_leaves"),
    ("ckad.ad", "is_ground", "is_ground"),
    ("ckad.cps", "forward_j", "forward_j"),
    ("ckad.drivers", "run_checkpoint", "run_checkpoint"),
]

MACHINE_ENTRY_POINTS = ["primops", "interrupt", "resume", "apply",
                        "reverse_base"]


class Tracer:
    """Records spans; ``op`` tags each span with the operation running."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, op]
        self.ops: list[tuple] = []   # (op, start, end)
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install_modules(self) -> None:
        import importlib
        for module_name, attr, name in MODULE_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def install_machine(self, machine) -> None:
        for attr in MACHINE_ENTRY_POINTS:
            setattr(machine, attr, self.wrap(attr, getattr(machine, attr)))

    def run_op(self, op: int, fn, *args):
        """Call ``fn(*args)`` as operation ``op``, recording its bounds."""
        self.op = op
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.ops.append((op, start, time.perf_counter()))
            self.op = -1

    def summary(self, ops) -> tuple[dict, dict, float, float]:
        """Self time and call count per span name over the spans of
        ``ops``, plus those operations' wall time and the part of it no
        span covers."""
        ops = set(ops)
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        child_s: dict = defaultdict(float)
        root_s = 0.0
        for span in self.spans:
            if span[4] not in ops:
                continue
            duration = span[2] - span[1]
            if span[3] < 0:
                root_s += duration
            else:
                child_s[span[3]] += duration
        for i, span in enumerate(self.spans):
            if span[4] not in ops:
                continue
            name = self.names[span[0]]
            self_s[name] += span[2] - span[1] - child_s.get(i, 0.0)
            calls[name] += 1
        wall = sum(end - start for op, start, end in self.ops if op in ops)
        return dict(self_s), dict(calls), wall, wall - root_s

    def write(self, path) -> None:
        """Write every span as one CSV line: id, parent, op, name, start
        and end in seconds on the ``perf_counter`` clock."""
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start,end\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{parent},{op},{self.names[name]},"
                         f"{start!r},{end!r}\n")
            for op, start, end in self.ops:
                fh.write(f",,{op},op,{start!r},{end!r}\n")
