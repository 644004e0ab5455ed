"""Two-phase slice execution: signatures up front, slices fanned out.

The paper's whole point is that instrumented timeslices run *in
parallel* on idle cores.  The discrete-event scheduler (:mod:`repro.sched`)
models that parallelism; this module provides the real thing by
splitting the old interleaved signature+slice loop into two explicit
phases:

1. **Signature phase** (:func:`record_signatures`) — every interior
   boundary's signature is recorded before any slice runs.  Legal
   because a signature reads only its own boundary snapshot, and
   recording leaves that snapshot's copy-on-write state untouched (the
   quick-register lookahead runs on a throwaway
   :meth:`~repro.machine.memory.Memory.scratch_fork`, never on the
   snapshot itself — forking the snapshot would freeze its pages and
   charge the real slice a phantom COW fault per resident page).
2. **Slice phase** (:func:`execute_slices`) — slice contents are fully
   determined at fork time: record/playback removes every kernel
   dependence, the same determinism property rr exploits to re-execute
   recordings on other cores.  With ``-spworkers N`` the slices fan out
   over a :class:`concurrent.futures.ProcessPoolExecutor`; with the
   default ``-spworkers 0`` they run sequentially in-process, producing
   bit-identical results.

Workers receive one pickled payload — boundary snapshot, interval
records, end signature, tool-context template, SP handle, config — and
return a pickled ``(result, fork_seconds, run_seconds, metrics)``
4-tuple, framed with a length prefix and checksum
(:func:`~repro.superpin.journal.frame_blob`) so wire damage surfaces as
a structured :class:`~repro.superpin.faults.CorruptResultFault`.  Pickling one tuple keeps shared references (tool ↔ SP handle
↔ areas) coherent inside the worker; on the way back,
:class:`~repro.superpin.sharedmem.resolve_shared_areas` maps every
:class:`SharedArea` reference in the returned tool context onto the
parent's canonical instance, so slice-end merge functions still write
the one true region.  The metrics element is the worker registry's
snapshot (None when ``-spmetrics`` is off); the parent merges it so
counter totals are identical regardless of worker count.

Shared-code-cache charging is deliberately *not* done while slices run:
:func:`repro.superpin.sharedcache.charge_slices_in_order` re-attributes
compile costs in slice-index order afterwards, so the §8 extension's
figures are identical regardless of worker completion order.

Wall-clock self-timing is structured tracing (:mod:`repro.obs`): the
executors emit ``slice.pickle`` / ``slice.fork`` / ``slice.run`` spans
(and the merge phase emits ``slice.merge``), with worker-side durations
synthesized onto parallel tracks at completion so a Chrome-trace export
shows the fan-out as real timeline lanes.  :class:`SliceTimings` — the
measured counterpart to the virtual-cycle figures, used by
``SuperPinReport.measured_parallelism`` — is now a *view* over those
spans (:func:`slice_timings_from_records`), not separate bookkeeping.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

from ..machine.cpu import CpuState
from ..machine.process import Process
from ..obs.metrics import metrics_for, NULL_METRICS
from ..obs.tracer import ensure_tracer, NULL_TRACER, TrackAllocator
from ..pin.template import TemplateCache
from .api import SliceToolContext, SPControl
from .control import Boundary, MasterTimeline
from .journal import frame_blob, unframe_blob
from .sharedcache import TemplateStore
from .sharedmem import resolve_shared_areas
from .signature import (DEFAULT_QUICK_REGS, record_signature,
                        select_quick_registers, Signature)
from .slices import run_slice, SliceResult
from .switches import SuperPinConfig


@dataclass
class SliceTimings:
    """Measured (host wall-clock) seconds for one slice's lifecycle.

    A view over the slice phase's trace spans (see
    :func:`slice_timings_from_records`), kept as a stable structure so
    reports and benchmarks don't parse raw span records.
    """

    index: int
    #: Parent-side payload serialization plus result deserialization.
    pickle_seconds: float = 0.0
    #: Worker-side payload materialization — the real fork analogue.
    fork_seconds: float = 0.0
    #: run_slice execution proper (worker-side when parallel).
    run_seconds: float = 0.0
    #: Parent-side merge of this slice's results into the shared areas.
    merge_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (self.pickle_seconds + self.fork_seconds
                + self.run_seconds + self.merge_seconds)


#: Span name -> SliceTimings field: the trace-to-timings projection.
TIMING_SPANS = {
    "slice.pickle": "pickle_seconds",
    "slice.fork": "fork_seconds",
    "slice.run": "run_seconds",
    "slice.merge": "merge_seconds",
}


def slice_timings_from_records(records, n_slices: int,
                               metrics=NULL_METRICS) -> list[SliceTimings]:
    """Project trace span records onto per-slice :class:`SliceTimings`.

    Only spans named in :data:`TIMING_SPANS` and tagged with a ``slice``
    argument contribute; durations for the same (slice, field) pair sum,
    so a payload-pickle span and a result-decode span both land in
    ``pickle_seconds`` exactly like the old hand-rolled counters did.

    The ``slice`` tag must be a genuine int in range.  ``True`` is an
    ``int`` subclass in Python, so an ``isinstance`` guard would let a
    boolean tag silently credit slice 1 with another slice's seconds;
    and an out-of-range index means the span and the interval list
    disagree about the run's shape.  Neither is a valid projection, so
    such spans are dropped and counted under ``superpin.timings.dropped``
    instead of vanishing.
    """
    timings = [SliceTimings(index=k) for k in range(n_slices)]
    dropped = 0
    for record in records:
        field_name = TIMING_SPANS.get(record.name)
        if field_name is None or not record.args:
            continue
        k = record.args.get("slice")
        if type(k) is int and 0 <= k < n_slices:
            timing = timings[k]
            setattr(timing, field_name,
                    getattr(timing, field_name) + record.duration)
        else:
            dropped += 1
    if dropped:
        metrics.inc("superpin.timings.dropped", dropped)
    return timings


# -- signature phase ----------------------------------------------------------

def record_boundary_signature(boundary: Boundary,
                              config: SuperPinConfig) -> Signature:
    """Record the signature of one boundary snapshot (recording mode).

    Runs the §4.4 quick-register lookahead on a *throwaway* scratch copy
    of the boundary snapshot, then captures registers and top-of-stack
    words from the snapshot itself.  The scratch must be a
    :meth:`~repro.machine.memory.Memory.scratch_fork`: an ordinary
    ``fork`` would freeze every resident page of ``boundary.mem_fork``,
    and the real slice — which later runs on that same snapshot — would
    be charged a phantom ``cow_fault`` on its first write to each page,
    corrupting the §6 fork-overhead figures.
    """
    cpu = CpuState()
    cpu.restore(boundary.cpu_snapshot)
    quick = None
    adaptive = False
    if config.quickreg_adaptive:
        scratch_proc = Process(cpu.copy(), boundary.mem_fork.scratch_fork(),
                               syscall_handler=None)
        quick = select_quick_registers(scratch_proc, config)
        adaptive = quick is not None
    return record_signature(cpu, boundary.mem_fork, config,
                            quick_regs=quick or DEFAULT_QUICK_REGS,
                            adaptive=adaptive)


def record_signatures(timeline: MasterTimeline,
                      config: SuperPinConfig,
                      tracer=NULL_TRACER) -> list[Signature]:
    """Signature phase: record every interior boundary's signature.

    ``signatures[k]`` is the signature of boundary ``k + 1`` — the end
    signature slice ``k`` must detect (the final slice has none; it runs
    to the replayed exit).  Recording everything up front is what allows
    the slice phase to run in any order: each signature reads only its
    own boundary snapshot and mutates nothing.
    """
    signatures = []
    for k, boundary in enumerate(timeline.boundaries[1:]):
        with tracer.span("signature", cat="signature",
                         args={"boundary": k + 1}):
            signatures.append(record_boundary_signature(boundary, config))
    return signatures


# -- slice phase --------------------------------------------------------------

def _end_signature(signatures: list[Signature], k: int) -> Signature | None:
    return signatures[k] if k < len(signatures) else None


def _slice_payload(timeline: MasterTimeline, signatures: list[Signature],
                   template: SliceToolContext, sp: SPControl,
                   config: SuperPinConfig, k: int, tracer,
                   warm=None, export_warm: bool = False) -> bytes:
    """Pickle one slice's full worker payload (traced as slice.pickle).

    ``warm`` is the frozen warm payload (``TemplatePayload``) shipped to
    the slice; ``export_warm`` asks the slice to return the shareable
    templates it lowered — the pilot's freeze into the payload, and with
    a persistent trace store every slice's are kept.
    """
    with tracer.span("slice.pickle", cat="slice", args={"slice": k}):
        return pickle.dumps(
            (timeline.boundaries[k], timeline.intervals[k],
             _end_signature(signatures, k), template, sp, config,
             warm, export_warm),
            pickle.HIGHEST_PROTOCOL)


def _worker_run_slice(payload: bytes) -> bytes:
    """Process-pool entry point: one pickled payload in, one result out.

    Returns ``(result, fork_seconds, run_seconds, metrics)`` pickled and
    *framed* (length prefix + sha256, :func:`~repro.superpin.journal.
    frame_blob`), so a short read or bit flip on the way back surfaces
    as :class:`~repro.superpin.faults.CorruptResultFault` — which the
    supervisor's retry ladder handles — instead of a raw
    ``UnpicklingError``.  ``metrics`` is the worker-local registry
    snapshot, or None when ``-spmetrics`` is off.
    """
    t0 = time.perf_counter()
    (boundary, interval, end_signature, template, sp,
     config, warm, export_warm) = pickle.loads(payload)
    fork_seconds = time.perf_counter() - t0
    metrics = metrics_for(config.spmetrics)
    t0 = time.perf_counter()
    result = run_slice(boundary, interval, end_signature, template, sp,
                       config, metrics=metrics, warm=warm,
                       export_warm=export_warm)
    run_seconds = time.perf_counter() - t0
    return frame_blob(pickle.dumps(
        (result, fork_seconds, run_seconds, metrics.snapshot()),
        pickle.HIGHEST_PROTOCOL))


def synthesize_slice_spans(tracer, tracks: TrackAllocator, k: int,
                           done_at: float, fork_seconds: float,
                           run_seconds: float,
                           args: dict | None = None) -> int:
    """Place a completed slice's worker-side spans on the timeline.

    The worker reports *durations*; the parent knows the completion
    instant on its own clock.  Anchoring the span chain at
    ``done_at - fork - run`` reconstructs the execution window, and the
    track allocator lanes concurrent windows apart so the trace renders
    the fan-out as parallel tracks.  Returns the track used.
    """
    start = max(0.0, done_at - fork_seconds - run_seconds)
    track = tracks.place(start, done_at)
    slice_args = {"slice": k}
    if args:
        slice_args.update(args)
    parent = tracer.add_span("slice", start, done_at, cat="slice",
                             track=track, args=slice_args)
    tracer.add_span("slice.fork", start, start + fork_seconds,
                    cat="slice", track=track, args={"slice": k},
                    parent_id=parent)
    tracer.add_span("slice.run", start + fork_seconds, done_at,
                    cat="slice", track=track, args={"slice": k},
                    parent_id=parent)
    return track


def execute_slices(timeline: MasterTimeline, signatures: list[Signature],
                   template: SliceToolContext, sp: SPControl,
                   config: SuperPinConfig, tracer=None,
                   metrics=NULL_METRICS, prewarm=None, warm_store=None,
                   on_progress=None
                   ) -> tuple[list[SliceResult], list[SliceTimings]]:
    """Slice phase: execute every timeslice, honouring ``-spworkers``.

    Returns results ordered by slice index (regardless of completion
    order) plus per-slice wall-clock timings — the latter a view over
    the spans this call emitted into ``tracer`` (a private tracer is
    used when the caller passes none).  Results are functionally
    identical between the sequential fallback and any worker count —
    the parity is enforced by the test suite.

    ``prewarm`` is a warm payload loaded from the persistent trace
    store: with it, *every* slice (the pilot included) starts warm and
    the pilot export protocol is skipped entirely.  ``warm_store`` is
    the :class:`~repro.superpin.sharedcache.TemplateStore` the pilot's
    exports fold into on the cold path; with it every slice exports its
    shareable templates too (worker slices on their results, sequential
    slices through the live cache), so the caller can persist them all
    afterwards.  ``on_progress``, when given, is called
    in the parent as ``on_progress("slice", {"completed": n,
    "total": n_slices})`` after each slice result lands — the streaming
    hook the serve daemon forwards to its clients.
    """
    tracer = ensure_tracer(tracer)
    mark = tracer.mark()
    if config.spworkers <= 0:
        results = _execute_sequential(timeline, signatures, template, sp,
                                      config, tracer, metrics, prewarm,
                                      warm_store, on_progress)
    else:
        results = _execute_parallel(timeline, signatures, template, sp,
                                    config, tracer, metrics, prewarm,
                                    warm_store, on_progress)
    timings = slice_timings_from_records(tracer.records_since(mark),
                                         len(timeline.intervals),
                                         metrics=metrics)
    return results, timings


def _notify(on_progress, completed: int, total: int) -> None:
    if on_progress is not None:
        on_progress("slice", {"completed": completed, "total": total})


def _execute_sequential(timeline: MasterTimeline,
                        signatures: list[Signature],
                        template: SliceToolContext, sp: SPControl,
                        config: SuperPinConfig, tracer, metrics,
                        prewarm=None, warm_store=None, on_progress=None
                        ) -> list[SliceResult]:
    """In-process execution (``-spworkers 0``): no pickling, no pool.

    Warm cache: every slice reads and extends one live template cache,
    so each trace lowers once per run.  Slice 0 is still the pilot: its
    exports (the persistent store's payload) and its TC2 chains freeze
    the payload every later slice installs its promotion profile from —
    the same pilot-then-rest protocol the parallel executor uses, so
    results match for any worker count.  With ``prewarm`` (a
    persistent-store hit) there is no pilot: the stored templates seed
    the cache and every slice installs the stored chains.
    """
    n_slices = len(timeline.intervals)
    warmcache = config.spwarmcache
    pilot = warmcache and prewarm is None and n_slices > 1
    warm = prewarm if warmcache else None
    templates = None
    if warmcache:
        templates = TemplateCache(prewarm.templates if prewarm else ())
    results: list[SliceResult] = []
    for k, interval in enumerate(timeline.intervals):
        with tracer.span("slice", cat="slice", args={"slice": k}):
            with tracer.span("slice.run", cat="slice",
                             args={"slice": k}):
                results.append(run_slice(timeline.boundaries[k], interval,
                                         _end_signature(signatures, k),
                                         template, sp, config,
                                         metrics=metrics, warm=warm,
                                         export_warm=pilot and k == 0,
                                         trace_templates=templates))
        if pilot and k == 0:
            store = warm_store if warm_store is not None \
                else TemplateStore()
            warm = store.fold_pilot(results[0])
        _notify(on_progress, len(results), n_slices)
    if warm_store is not None and templates is not None:
        warm_store.collect(templates.templates())
    return results


def _execute_parallel(timeline: MasterTimeline,
                      signatures: list[Signature],
                      template: SliceToolContext, sp: SPControl,
                      config: SuperPinConfig, tracer, metrics,
                      prewarm=None, warm_store=None, on_progress=None
                      ) -> list[SliceResult]:
    """Fan slices out over ``-spworkers`` processes.

    Payloads are pickled explicitly (one blob per slice) so the
    serialization cost is measured, and — because tool, SP handle and
    area references travel inside one tuple — the worker sees the same
    object graph a deep copy would have produced.

    Warm cache: the pilot (slice 0) is submitted alone and awaited; its
    exports freeze the warm payload, then slices 1..n-1 are submitted
    all at once with it.  The pilot serialization point costs one slice
    of latency and buys every other slice a hot working set.  With
    ``prewarm`` (a persistent-store hit) the pilot barrier disappears:
    every slice is submitted at once, all of them warm.
    """
    n_slices = len(timeline.intervals)
    workers = min(config.spworkers, n_slices) or 1
    warmcache = config.spwarmcache
    pilot = warmcache and prewarm is None and n_slices > 1

    results: dict[int, SliceResult] = {}
    tracks = TrackAllocator()

    def collect(k: int, blob: bytes) -> SliceResult:
        done_at = tracer.now()
        with tracer.span("slice.pickle", cat="slice",
                         args={"slice": k, "op": "decode"}):
            with resolve_shared_areas(sp.areas):
                (result, fork_seconds, run_seconds,
                 snapshot) = pickle.loads(unframe_blob(blob))
        metrics.merge(snapshot)
        synthesize_slice_spans(tracer, tracks, k, done_at,
                               fork_seconds, run_seconds)
        results[k] = result
        _notify(on_progress, len(results), n_slices)
        return result

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        warm = prewarm if warmcache else None
        first = 0
        if pilot:
            payload = _slice_payload(timeline, signatures, template, sp,
                                     config, 0, tracer, export_warm=True)
            blob = pool.submit(_worker_run_slice, payload).result()
            store = warm_store if warm_store is not None \
                else TemplateStore()
            warm = store.fold_pilot(collect(0, blob))
            first = 1
        futures = {}
        for k in range(first, n_slices):
            payload = _slice_payload(timeline, signatures, template, sp,
                                     config, k, tracer, warm=warm,
                                     export_warm=warm_store is not None)
            futures[pool.submit(_worker_run_slice, payload)] = k
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                k = futures[future]
                blob = future.result()  # re-raises worker exceptions
                collect(k, blob)
    except BaseException:
        # Fail fast: abort the run promptly instead of draining every
        # still-queued slice through the pool (which is what the plain
        # context manager's shutdown(wait=True) would do).
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown()
    for track in range(1, tracks.num_tracks + 1):
        tracer.name_track(track, f"slice lane {track}")
    return [results[k] for k in range(n_slices)]
