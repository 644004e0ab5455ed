"""Per-layer attribution for one traced ``run_superpin`` operation.

Spans are recorded here, in the benchmark, around calls into each
layer's public functions; nothing inside the program changes.  Each
layer keeps busy nanoseconds, call count and (for the JIT) lowered
instructions.  The counters live in an anonymous shared mapping so
slices that run in forked ``-spworkers`` processes add to the same
totals as the parent.

Self time — a span minus the spans nested inside it — is kept only for
the parent process: those self times plus the unattributed remainder
partition the operation's wall time.  Worker-side time overlaps the
parent's wait in the slice phase, so it is reported as busy seconds
(``jit.s``, ``tc2.s``) but kept out of the partition.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import statistics
import time
from contextlib import contextmanager

from repro.pin import jit as pin_jit
from repro.pin import pyjit as pin_pyjit
from repro.pin import superblock as pin_superblock
from repro.superpin import control as sp_control
from repro.superpin import runtime as sp_runtime

#: Layer name -> (owner, attribute) of each public function wrapped.
#: ``runtime`` looks its phase functions up in its own module globals,
#: so those are patched there.
LAYERS = {
    "control": [(sp_control.ControlProcess, "run")],
    "signature": [(sp_runtime, "record_signatures")],
    "slices": [(sp_runtime, "supervise_slices")],
    "jit": [(pin_jit.Jit, "compile"), (pin_jit.Jit, "compile_step"),
            (pin_pyjit.SourceJit, "compile"),
            (pin_pyjit.SourceJit, "compile_warm")],
    "tc2": [(pin_superblock.TranslationCache2, "maybe_promote"),
            (pin_superblock.TranslationCache2, "install_profile"),
            (pin_superblock.TranslationCache2, "note_insert")],
    "merge": [(sp_runtime, "merge_slices")],
    "timing": [(sp_runtime, "simulate")],
}

# Per-layer int64 cells in the shared mapping.
_BUSY, _SELF, _CALLS, _INS = range(4)
_FIELDS = 4


class LayerClock:
    """Span accounting shared by the parent and its forked workers."""

    def __init__(self):
        self.names = list(LAYERS)
        self._mem = mmap.mmap(-1, 8 * _FIELDS * len(self.names))
        self._cells = memoryview(self._mem).cast("q")
        self._lock = multiprocessing.Lock()
        self._parent = os.getpid()
        #: Open spans of this process: nanoseconds covered by children.
        self._stack: list[list[int]] = []

    def close(self) -> None:
        self._cells.release()
        self._mem.close()

    def wrap(self, layer: str, fn):
        base = _FIELDS * self.names.index(layer)

        def span(*args, **kwargs):
            frame = [0]
            self._stack.append(frame)
            started = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter_ns() - started
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                own = (elapsed - frame[0]
                       if os.getpid() == self._parent else 0)
                lowered = getattr(result, "num_ins", 0) \
                    if layer == "jit" else 0
                with self._lock:
                    self._cells[base + _BUSY] += elapsed
                    self._cells[base + _SELF] += own
                    self._cells[base + _CALLS] += 1
                    self._cells[base + _INS] += lowered

        return span

    @contextmanager
    def installed(self):
        """Patch every layer function for the duration of the block."""
        saved = []
        try:
            for layer, targets in LAYERS.items():
                for owner, attr in targets:
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(layer, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def read(self, layer: str) -> dict[str, float]:
        base = _FIELDS * self.names.index(layer)
        return {"s": self._cells[base + _BUSY] / 1e9,
                "self_s": self._cells[base + _SELF] / 1e9,
                "calls": self._cells[base + _CALLS],
                "ins": self._cells[base + _INS]}


def _tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it (capped
    at p90), and that percentile."""
    q = min(0.90, 1.0 - 10 / len(values)) if len(values) > 10 else 0.5
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))], 100 * q


def layer_metrics(report, clock: LayerClock, run_s: float
                  ) -> dict[str, float]:
    """Per-layer figures for one traced operation (``-spmetrics`` on)."""
    counters = report.metrics.counters
    layers = {name: clock.read(name) for name in LAYERS}
    out: dict[str, float] = {}
    for name, figures in layers.items():
        out[f"{name}.s"] = figures["s"]
        out[f"{name}.self_s"] = figures["self_s"]

    timeline = report.timeline
    out["control.ins"] = timeline.total_instructions
    out["control.intervals"] = len(timeline.intervals)
    out["control.syscalls"] = timeline.total_syscalls

    out["signature.count"] = len(report.signatures)

    wall = report.wallclock_summary()
    supervision = report.supervision_summary()
    run_times = [t.run_seconds for t in report.slice_timings]
    tail, tail_q = _tail(run_times)
    out["slices.count"] = report.num_slices
    out["slices.attempts"] = supervision["attempts"]
    out["slices.failed_attempts"] = supervision["failed_attempts"]
    out["slice.run_s.p50"] = statistics.median(run_times)
    out["slice.run_s.tail"] = tail
    out["slice.run_s.tail_q"] = tail_q
    out["slices.pickle_s"] = wall["slice_pickle_seconds"]
    out["slices.fork_s"] = wall["slice_fork_seconds"]
    out["slices.parallelism"] = wall["measured_parallelism"]

    distinct = {address for s in report.slices
                for address, _ in s.compile_log}
    calls = layers["jit"]["calls"]
    reported = counters.get("pin.cache.compiles", 0)
    out["jit.calls"] = calls
    out["jit.distinct"] = len(distinct)
    out["jit.lowered_ins"] = layers["jit"]["ins"]
    out["jit.reuse_ratio"] = len(distinct) / calls if calls else 0.0
    out["jit.unreported"] = calls - reported

    lookups = counters.get("pin.cache.lookups", 0)
    out["cache.lookups"] = lookups
    out["cache.hit_rate"] = (counters.get("pin.cache.hits", 0) / lookups
                             if lookups else 0.0)
    out["cache.linked_dispatches"] = counters.get(
        "pin.cache.linked_dispatches", 0)
    out["cache.evictions"] = counters.get("pin.cache.evicted_traces", 0)
    out["cache.compiles_reported"] = reported
    out["cache.warm_starts"] = counters.get("pin.cache.warm_starts", 0)
    out["cache.warm_mismatches"] = counters.get(
        "pin.cache.warm_mismatches", 0)

    dispatches = counters.get("pin.tc2.dispatches", 0)
    mispredicts = counters.get("pin.tc2.mispredicts", 0)
    out["tc2.promotions"] = counters.get("pin.tc2.promotions", 0)
    out["tc2.dispatches"] = dispatches
    out["tc2.mispredicts"] = mispredicts
    out["tc2.hit_ratio"] = (1.0 - mispredicts / dispatches
                            if dispatches else 0.0)

    out["analysis.calls"] = sum(s.analysis_calls for s in report.slices)
    out["sched.total_cycles"] = report.timing.total_cycles
    out["sched.master_finish_cycles"] = report.timing.master_finish_cycles
    out["cow_faults"] = (sum(s.cow_faults for s in report.slices)
                         + sum(i.master_cow_faults
                               for i in timeline.intervals))

    attributed = sum(layers[name]["self_s"] for name in LAYERS)
    out["run_s"] = run_s
    out["unattributed_s"] = run_s - attributed
    return out
