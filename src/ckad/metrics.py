"""Run metrics: tape high-water marks, snapshot counts, recompute totals,
and an optional event trace.

A single module-level :data:`METER` instance collects everything; the
harness resets it before each measured run.  Events are recorded as plain
tuples so they are cheap to emit and easy to serialize:

* ``("advance", frm, to)``   — an interrupted forward sweep from absolute
                               step ``frm`` to absolute step ``to``
* ``("snapshot", sid, at)``  — a retained (function, argument) pair at
                               absolute step ``at``
* ``("release", sid, at)``   — that snapshot is no longer needed
* ``("leaf", frm, to)``      — a taped (non-checkpointed) reverse sweep
                               over ``[frm, to)``
* ``("seed", at)``           — the output cotangent is injected at the
                               right edge of a leaf
* ``("done",)``              — the driver finished
"""

from __future__ import annotations

from dataclasses import dataclass


class Meter:
    __slots__ = ("tape_live", "tape_peak", "snap_live", "snap_peak",
                 "recompute_steps", "leaves", "leaf_steps", "trace",
                 "trace_enabled", "_next_sid")

    def __init__(self):
        self.reset()

    def reset(self, trace: bool = False) -> None:
        self.tape_live = 0
        self.tape_peak = 0
        self.snap_live = 0
        self.snap_peak = 0
        self.recompute_steps = 0
        self.leaves = 0
        self.leaf_steps = 0
        self.trace = []
        self.trace_enabled = trace
        self._next_sid = 0

    # -- tape ---------------------------------------------------------------
    def cells_created(self, count: int = 1) -> None:
        self.tape_live += count
        if self.tape_live > self.tape_peak:
            self.tape_peak = self.tape_live

    def cells_released(self, count: int) -> None:
        self.tape_live -= count

    # -- driver events -------------------------------------------------------
    def advance(self, frm: int, to: int) -> None:
        self.recompute_steps += to - frm
        if self.trace_enabled:
            self.trace.append(("advance", frm, to))

    def snapshot(self, at: int) -> int:
        self.snap_live += 1
        if self.snap_live > self.snap_peak:
            self.snap_peak = self.snap_live
        sid = self._next_sid
        self._next_sid += 1
        if self.trace_enabled:
            self.trace.append(("snapshot", sid, at))
        return sid

    def release(self, sid: int, at: int) -> None:
        self.snap_live -= 1
        if self.trace_enabled:
            self.trace.append(("release", sid, at))

    def leaf(self, frm: int, to: int) -> None:
        self.leaves += 1
        self.leaf_steps += to - frm
        if self.trace_enabled:
            self.trace.append(("seed", to))
            self.trace.append(("leaf", frm, to))

    def done(self) -> None:
        if self.trace_enabled:
            self.trace.append(("done",))

    def write_trace_jsonl(self, path: str) -> None:
        import json
        with open(path, "w") as fh:
            for event in self.trace:
                record = {"event": event[0]}
                if event[0] == "advance" or event[0] == "leaf":
                    record["from"], record["to"] = event[1], event[2]
                elif event[0] == "snapshot" or event[0] == "release":
                    record["id"], record["at"] = event[1], event[2]
                elif event[0] == "seed":
                    record["at"] = event[1]
                fh.write(json.dumps(record) + "\n")


#: The global metrics collector.
METER = Meter()


CSV_COLUMNS = ["mode", "algorithm", "split", "criterion", "alpha", "pipeline",
               "n", "l", "L", "peak_tape", "peak_snapshots",
               "recompute_steps", "leaves", "wall_ms"]


@dataclass
class RunMetrics:
    mode: str = ""
    algorithm: str = ""
    split: str = ""
    criterion: str = ""
    alpha: int = 0
    pipeline: str = "a"
    n: int = 0
    l: int = 0
    L: int = 0
    peak_tape: int = 0
    peak_snapshots: int = 0
    recompute_steps: int = 0
    leaves: int = 0
    wall_ms: float = 0.0

    def csv_row(self) -> list:
        return [getattr(self, c) for c in CSV_COLUMNS]
