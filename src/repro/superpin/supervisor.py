"""The slice executor: every slice phase, under one fault policy.

The paper's control process survives misbehaving slices — a slice that
never detects its ending signature is killed by the runaway guard
(§4.3/§4.4) and the run keeps going.  This module gives the
reproduction the same discipline at the host level.  Because
record/playback makes every slice deterministic and re-executable from
its fork snapshot (the property rr-style replay exploits), a slice
whose *execution* fails — worker crash, hang, corrupted result,
runaway — can simply be re-run, in another worker or in-process,
without affecting any other slice.

:func:`supervise_slices` is the only slice-phase executor.  One run
loop drives every slice through the same ladder; the only branch is
where an attempt runs:

* **in-process** (``-spworkers 0``, and every fallback attempt):
  :func:`~repro.superpin.slices.run_slice` on the live objects, with no
  payload pickle.  In-process attempts read and extend the run's one
  live template cache, and count into a slice-local metrics registry
  that is merged only on success.  ``run_slice`` starts every attempt
  from a scratch fork of the boundary snapshot, so a retry after a
  mid-run failure starts from the true boundary state;
* **worker** (``-spworkers N``): the framed pickled payload of
  :mod:`repro.superpin.parallel` goes to a process pool through a
  sliding window of at most 2N attempts in flight.

Around the attempts:

* a **wall-clock deadline** per slice, derived from its master
  instruction count plus a configurable floor
  (:func:`slice_deadline`); a worker still running past it is reaped
  (worker processes terminated, pool rebuilt, innocent in-flight
  slices resubmitted without touching their retry budget);
* **bounded retries with backoff**: a failed slice is re-executed where
  it ran up to ``-spretries`` times, then once in-process (the
  fallback), with exponential backoff between retries;
* **pool reconstruction**: a ``BrokenProcessPool`` (a worker died)
  rebuilds the pool and resubmits every in-flight slice instead of
  aborting the run;
* a **policy switch** (``-spfaults``): ``failfast`` is the ladder of
  length one — no retry, no fallback, the pool torn down at once and a
  :class:`~repro.errors.SliceExecutionError` raised *from* the slice's
  own exception; ``retry`` exhausts the ladder then raises the same
  error; ``degrade`` records the slice as a hole (:class:`SliceOutcome`
  with status ``degraded``), merges the survivors in slice order, and
  completes the run with ``all_exact == False``.

Every attempt is recorded as a :class:`SliceAttempt` on the slice's
:class:`SliceOutcome`, which lands on ``SuperPinReport.slice_outcomes``
— the structured answer to "what happened to slice k and why".

Retries are exact: worker attempts re-materialize the slice from its
original pickled payload, and in-process attempts re-run it from the
untouched boundary snapshot, so a recovered slice's result — counters,
cow faults, compile log — is identical to a clean first-attempt run.
Only host compile work (``lowered_*``, ``warm_starts``) depends on
which templates an attempt found cached.

Deadlines are enforced by reaping *worker* attempts; an in-process
attempt cannot be preempted by a single-threaded parent, so only
injected hangs surface as :class:`~repro.errors.SliceDeadlineError`
there.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial

from ..errors import SliceExecutionError
from ..obs.metrics import metrics_for, NULL_METRICS
from ..obs.tracer import ensure_tracer, TrackAllocator
from ..pin.template import TemplateCache
from .api import SliceToolContext, SPControl
from .control import Interval, MasterTimeline
from .faults import (CORRUPT_BLOB, CorruptResultFault, FaultKind, FaultPlan,
                     maybe_inject, tamper_blob, tamper_result)
from .journal import unframe_blob
from .parallel import (_end_signature, _slice_payload, _worker_run_slice,
                       frame_result, SliceTimings,
                       slice_timings_from_records, synthesize_slice_spans)
from .sharedcache import TemplateStore
from .sharedmem import resolve_shared_areas
from .signature import Signature
from .slices import run_slice, SliceResult
from .switches import SuperPinConfig


@dataclass
class SliceAttempt:
    """One execution attempt of one slice, successful or not."""

    #: Ordinal execution number for this slice (1-based).
    number: int
    #: Where the attempt ran: ``"worker"`` or ``"inprocess"``.
    where: str
    #: Host wall-clock seconds the attempt was in flight.
    seconds: float = 0.0
    #: ``None`` on success, else a one-line description of the failure.
    error: str | None = None
    #: False when the attempt ended through no fault of its own (the
    #: pool was torn down to reap a neighbour) and was resubmitted
    #: without touching the slice's retry budget.
    charged: bool = True

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SliceOutcome:
    """Structured per-slice supervision record (status + history)."""

    index: int
    #: ``"ok"`` (a result was produced) or ``"degraded"`` (policy
    #: ``degrade`` gave up on the slice and left a hole in the merge).
    status: str = "ok"
    attempts: list[SliceAttempt] = field(default_factory=list)
    #: Wall-clock deadline this slice's worker attempts ran under.
    deadline_seconds: float = 0.0
    #: Final error for a degraded slice (None when status is ``ok``).
    error: str | None = None

    @property
    def num_attempts(self) -> int:
        return len(self.attempts)

    @property
    def recovered(self) -> bool:
        """True when the slice succeeded only after a failed attempt."""
        return self.status == "ok" and any(not a.ok for a in self.attempts)


@dataclass
class SupervisedSlices:
    """What the supervised slice phase hands back to the runtime."""

    #: Surviving results in slice order (degraded slices are absent).
    results: list[SliceResult]
    timings: list[SliceTimings]
    outcomes: list[SliceOutcome]

    @property
    def degraded(self) -> list[int]:
        return [o.index for o in self.outcomes if o.status == "degraded"]


def slice_deadline(interval: Interval, config: SuperPinConfig) -> float:
    """Wall-clock deadline for one slice, in host seconds.

    The configurable floor covers fixed costs (payload materialization,
    pool scheduling); the per-instruction allowance scales with the
    master's instruction count for the interval, mirroring how the
    §4.3 runaway guard scales the virtual budget.
    """
    return (config.slice_deadline_floor
            + interval.instructions * config.slice_deadline_per_ins)


def _attempt_slice(run, index: int, attempt: int, plan: FaultPlan | None,
                   where: str):
    """Run one slice attempt under the fault plan.

    The one injection entry for both sites: ``run`` produces a framed
    result blob in a worker (``where == "worker"``) or a
    :class:`~repro.superpin.slices.SliceResult` in-process
    (``where == "inprocess"``).  A ``corrupt`` fault replaces a
    worker's blob with garbage and raises in-process; a ``tamper``
    fault falsifies the blob (:func:`tamper_blob`) or the result object
    (:func:`tamper_result`), silently.
    """
    spec = maybe_inject(plan, index, attempt, where)
    if spec is not None and spec.kind is FaultKind.CORRUPT:
        if where == "worker":
            return CORRUPT_BLOB
        raise CorruptResultFault(
            f"injected corrupt result: slice {index} attempt {attempt}")
    out = run()
    if spec is not None and spec.kind is FaultKind.TAMPER:
        # Silent corruption: the attempt looks like a clean success to
        # the supervisor; only the -spaudit oracle can catch it.
        if where == "worker":
            out = tamper_blob(out)
        else:
            tamper_result(out)
    return out


def _worker_attempt(payload: bytes, index: int, attempt: int,
                    plan: FaultPlan | None) -> bytes:
    """Process-pool entry point: one worker attempt of one slice."""
    return _attempt_slice(partial(_worker_run_slice, payload), index,
                          attempt, plan, "worker")


def supervise_slices(timeline: MasterTimeline, signatures: list[Signature],
                     template: SliceToolContext, sp: SPControl,
                     config: SuperPinConfig, tracer=None,
                     metrics=NULL_METRICS, journal=None, preloaded=None,
                     damaged=None, prewarm=None, warm_store=None,
                     on_progress=None) -> SupervisedSlices:
    """Run the slice phase under the configured fault policy.

    Returns surviving results in slice order (regardless of completion
    order), per-slice wall-clock timings — a view over the spans this
    call emitted into ``tracer`` (a private tracer is used when the
    caller passes none) — and one :class:`SliceOutcome` per slice.  The
    phase's counters land in ``metrics``.  Results are functionally
    identical for any worker count and policy; the parity is enforced
    by the test suite.

    Durability hooks:

    * ``journal`` — a :class:`~repro.superpin.journal.RunJournal`;
      every successful slice's framed result blob is appended durably.
    * ``preloaded`` — slice index -> framed blob adopted from a resumed
      journal; adopted slices are not re-executed.
    * ``damaged`` — slice index -> the
      :class:`~repro.errors.RecordingCorruptError` a replayed
      recording's load tolerated for that slice (``-spfaults degrade``
      only); these slices are degraded upfront, never attempted.

    Warm-cache hooks (see :mod:`repro.superpin.trace_store`):

    * ``prewarm`` — payload from a persistent-store hit; every slice
      (pilot included) starts warm and the pilot protocol is skipped.
    * ``warm_store`` — the
      :class:`~repro.superpin.sharedcache.TemplateStore` the pilot's
      exports fold into; with it every slice's shareable templates are
      kept, so the runtime can persist them all.
    * ``on_progress`` — parent-side ``("slice", {completed, total})``
      callback streamed to serve-daemon clients.
    """
    return _Supervisor(timeline, signatures, template, sp, config,
                       tracer=tracer, metrics=metrics, journal=journal,
                       preloaded=preloaded, damaged=damaged,
                       prewarm=prewarm, warm_store=warm_store,
                       on_progress=on_progress).run()


@dataclass
class _Flight:
    """Bookkeeping for one in-flight worker attempt."""

    index: int
    attempt: int
    started: float


class _Supervisor:
    """One slice phase: attempts, the retry ladder, the warm payload."""

    def __init__(self, timeline: MasterTimeline,
                 signatures: list[Signature], template: SliceToolContext,
                 sp: SPControl, config: SuperPinConfig, tracer=None,
                 metrics=NULL_METRICS, journal=None, preloaded=None,
                 damaged=None, prewarm=None, warm_store=None,
                 on_progress=None):
        self._timeline = timeline
        self._signatures = signatures
        self._template = template
        self.sp = sp
        self.config = config
        self.tracer = ensure_tracer(tracer)
        self.metrics = metrics
        self.journal = journal
        self.warm_store = warm_store
        self.on_progress = on_progress
        self.plan: FaultPlan | None = config.fault_plan
        self.n_slices = len(timeline.intervals)
        self._mark = self.tracer.mark()
        self._tracks = TrackAllocator()
        self.outcomes = [
            SliceOutcome(index=k,
                         deadline_seconds=slice_deadline(interval, config))
            for k, interval in enumerate(timeline.intervals)]
        self.results: dict[int, SliceResult] = {}
        #: Per-slice execution counter — the attempt numbers the fault
        #: plan sees.  Resubmissions after a neighbour's reap re-run the
        #: *same* attempt number (the original never got to finish).
        self.executions = [0] * self.n_slices
        #: Per-slice charged failures; the retry budget compares
        #: against ``spretries``.
        self.failures = [0] * self.n_slices
        # Damaged recording sections degrade their slices upfront: the
        # artifact has no trustworthy spec for them, so they are never
        # attempted — the same hole a degraded execution leaves.
        for k, err in sorted((damaged or {}).items()):
            self.outcomes[k].status = "degraded"
            self.outcomes[k].error = str(err)
            self.metrics.inc("superpin.supervisor.degraded_slices")
            self.tracer.instant("slice.degraded", cat="supervisor",
                                args={"slice": k, "error": str(err)})
        # Journaled results from a resumed run are adopted as-is; a blob
        # that fails to decode is simply re-executed.
        for k, blob in sorted((preloaded or {}).items()):
            if 0 <= k < self.n_slices and self._todo(k):
                self._adopt(k, blob)
        #: Warm-cache pilot protocol: slice 0 runs (and, if needed,
        #: retries) to resolution first; its exports and TC2 chains
        #: freeze :attr:`warm`, the payload every later slice receives
        #: — so results match for any worker count.  A persistent
        #: trace-store hit (``prewarm``) replaces the protocol: every
        #: slice, the pilot included, starts from the stored payload.
        self._pilot = (config.spwarmcache and prewarm is None
                       and self.n_slices > 1)
        self.warm = prewarm if config.spwarmcache else None
        #: The run's one live template cache, shared by every in-process
        #: attempt (created on first use, seeded from :attr:`warm`).
        self._templates: TemplateCache | None = None
        #: 0 runs every attempt in-process; else the pool's width.
        self._workers = min(config.spworkers, self.n_slices)
        self._pool: ProcessPoolExecutor | None = None
        self._flights: dict = {}
        #: Worker payloads, pickled on first submit and kept for retries.
        self._payloads: list[bytes | None] = [None] * self.n_slices
        self._pending: deque[int] = deque()

    def _todo(self, k: int) -> bool:
        """True while slice ``k`` still needs an execution attempt."""
        return (k not in self.results
                and self.outcomes[k].status != "degraded")

    def _adopt(self, k: int, blob: bytes) -> bool:
        """Adopt a journaled framed result blob for slice ``k``.

        Returns False (slice re-executes) when the blob does not decode
        — a journal entry survived its checksum but pickles to garbage,
        which only tampering can produce; re-execution is the safe
        response either way.
        """
        try:
            with resolve_shared_areas(self.sp.areas):
                (result, _fork_seconds, _run_seconds,
                 snapshot) = pickle.loads(unframe_blob(blob))
        except Exception:
            return False
        self.metrics.merge(snapshot)
        self.results[k] = result
        self.outcomes[k].attempts.append(
            SliceAttempt(number=0, where="journal", seconds=0.0))
        self.metrics.inc("superpin.journal.resumed_slices")
        self._notify()
        return True

    def _notify(self) -> None:
        """Stream slice completion to the caller (serve daemon hook)."""
        if self.on_progress is not None:
            self.on_progress("slice", {"completed": len(self.results),
                                       "total": self.n_slices})

    def _pilot_resolved(self) -> bool:
        """True once slice 0 has a result or was given up on."""
        return 0 in self.results or self.outcomes[0].status == "degraded"

    def _release_rest(self) -> None:
        """Pilot resolved: freeze the warm payload, queue the rest.

        A degraded pilot (no result) leaves no payload — later slices
        start without one rather than wait for exports that never come.
        """
        if 0 in self.results:
            store = self.warm_store if self.warm_store is not None \
                else TemplateStore()
            self.warm = store.fold_pilot(self.results[0])
        self._pilot = False
        self._pending.extend(k for k in range(1, self.n_slices)
                             if self._todo(k))

    # -- the run loop --------------------------------------------------------

    def run(self) -> SupervisedSlices:
        self._pending.extend(
            k for k in ([0] if self._pilot else range(self.n_slices))
            if self._todo(k))
        if self._workers:
            self._pool = ProcessPoolExecutor(max_workers=self._workers)
        try:
            while self._pending or self._flights or self._pilot:
                if self._pilot and self._pilot_resolved():
                    self._release_rest()
                if not self._workers:
                    if self._pending:
                        self._run_inprocess(self._pending.popleft())
                    continue
                # Sliding window of two attempts per worker: one running
                # and one queued behind it, so a freed worker never idles
                # waiting for the parent, and a deadline clock starts at
                # most about one slice before its attempt runs.
                while (self._pending
                       and len(self._flights) < 2 * self._workers):
                    self._submit(self._pending.popleft())
                if not self._flights:
                    # Everything left was adopted or degraded; loop
                    # around (and usually exit) instead of waiting on
                    # an empty flight set.
                    continue
                timeout = min(
                    max(0.0, self.outcomes[f.index].deadline_seconds
                        - (time.perf_counter() - f.started))
                    for f in self._flights.values())
                done, _ = wait(set(self._flights),
                               timeout=max(timeout, 0.01),
                               return_when=FIRST_COMPLETED)
                if not done:
                    self._reap_expired()
                    continue
                self._process_done(done)
        except BaseException:
            self._teardown(self._pool, self._flights)
            raise
        if self._pool is not None:
            self._pool.shutdown()
        return self._finish()

    def _finish(self) -> SupervisedSlices:
        if self.warm_store is not None and self._templates is not None:
            self.warm_store.collect(self._templates.templates(
                added_only=True))
        ordered = [self.results[k] for k in sorted(self.results)]
        timings = slice_timings_from_records(
            self.tracer.records_since(self._mark), self.n_slices,
            metrics=self.metrics)
        for track in range(1, self._tracks.num_tracks + 1):
            self.tracer.name_track(track, f"slice lane {track}")
        return SupervisedSlices(results=ordered, timings=timings,
                                outcomes=self.outcomes)

    # -- attempts ------------------------------------------------------------

    def _run_inprocess(self, k: int) -> None:
        """One in-process attempt of slice ``k`` on the live objects."""
        self.executions[k] += 1
        attempt = self.executions[k]
        metrics = metrics_for(self.metrics.enabled)
        t0 = time.perf_counter()
        try:
            result = _attempt_slice(partial(self._run_live, k, metrics), k,
                                    attempt, self.plan, "inprocess")
        except Exception as exc:
            self._record_failure(k, attempt, "inprocess",
                                 time.perf_counter() - t0, exc)
            self._after_failure(k, exc)
            return
        seconds = time.perf_counter() - t0
        synthesize_slice_spans(self.tracer, self._tracks, k,
                               self.tracer.now(), 0.0, seconds,
                               args={"attempt": attempt,
                                     "where": "inprocess"})
        snapshot = metrics.snapshot()
        blob = None
        if self.journal is not None:
            with self.tracer.span("slice.pickle", cat="slice",
                                  args={"slice": k, "op": "encode"}):
                blob = frame_result(result, 0.0, seconds, snapshot)
        self.metrics.merge(snapshot)
        self._file(k, attempt, "inprocess", seconds, result, blob)

    def _run_live(self, k: int, metrics) -> SliceResult:
        if self._templates is None and self.config.spwarmcache:
            self._templates = TemplateCache(
                self.warm.templates if self.warm is not None else ())
        return run_slice(self._timeline.boundaries[k],
                         self._timeline.intervals[k],
                         _end_signature(self._signatures, k),
                         self._template, self.sp, self.config,
                         metrics=metrics, warm=self.warm,
                         export_warm=self._pilot and k == 0,
                         trace_templates=self._templates)

    def _submit(self, k: int, attempt: int | None = None) -> None:
        """Launch one worker attempt (new attempt number unless given)."""
        if attempt is None:
            self.executions[k] += 1
            attempt = self.executions[k]
        if self._payloads[k] is None:
            self._payloads[k] = _slice_payload(
                self._timeline, self._signatures, self._template, self.sp,
                self.config, k, self.tracer, warm=self.warm,
                export_warm=(self._pilot and k == 0)
                or self.warm_store is not None)
        try:
            future = self._pool.submit(_worker_attempt, self._payloads[k],
                                       k, attempt, self.plan)
        except (BrokenProcessPool, RuntimeError):
            # The pool died between bookkeeping and submit; rebuild and
            # try once more (a second failure propagates).
            self._rebuild_pool()
            future = self._pool.submit(_worker_attempt, self._payloads[k],
                                       k, attempt, self.plan)
        self._flights[future] = _Flight(index=k, attempt=attempt,
                                        started=time.perf_counter())

    def _collect(self, k: int, attempt: int, seconds: float,
                 blob: bytes) -> None:
        """Decode a worker's result blob and file it; raises if bad."""
        done_at = self.tracer.now()
        with self.tracer.span("slice.pickle", cat="slice",
                              args={"slice": k, "op": "decode"}):
            with resolve_shared_areas(self.sp.areas):
                try:
                    (result, fork_seconds, run_seconds,
                     snapshot) = pickle.loads(unframe_blob(blob))
                except CorruptResultFault:
                    raise
                except Exception as exc:
                    raise CorruptResultFault(
                        f"slice {k} attempt {attempt} returned an "
                        f"undecodable result blob: {exc}") from exc
        self.metrics.merge(snapshot)
        synthesize_slice_spans(self.tracer, self._tracks, k, done_at,
                               fork_seconds, run_seconds,
                               args={"attempt": attempt, "where": "worker"})
        self._file(k, attempt, "worker", seconds, result, blob)

    def _file(self, k: int, attempt: int, where: str, seconds: float,
              result: SliceResult, blob: bytes | None) -> None:
        """A slice succeeded: keep its result, journal its blob."""
        self.results[k] = result
        self._payloads[k] = None
        self.outcomes[k].attempts.append(
            SliceAttempt(number=attempt, where=where, seconds=seconds))
        self._notify()
        if self.journal is not None:
            # Write-ahead: the framed blob lands durably *before* the
            # run proceeds (appended pre-fold, so an adopted pilot still
            # carries its warm exports on resume).
            self.journal.append(k, blob)

    def _process_done(self, done) -> None:
        for future in done:
            flight = self._flights.pop(future, None)
            if flight is None:
                continue
            k, attempt = flight.index, flight.attempt
            seconds = time.perf_counter() - flight.started
            try:
                self._collect(k, attempt, seconds, future.result())
            except BrokenProcessPool as exc:
                # A worker died; every in-flight future died with it and
                # the culprit is unknowable, so all of them are charged
                # and rescheduled (innocents succeed on their next try).
                casualties = [flight] + list(self._flights.values())
                self._flights.clear()
                self._rebuild_pool()
                now = time.perf_counter()
                for casualty in casualties:
                    self._record_failure(
                        casualty.index, casualty.attempt, "worker",
                        min(seconds, now - casualty.started),
                        "worker process died (process pool broken)")
                    self._after_failure(casualty.index, exc)
                return
            except Exception as exc:
                self._record_failure(k, attempt, "worker", seconds, exc)
                self._after_failure(k, exc)

    # -- the retry ladder ----------------------------------------------------

    def _record_failure(self, k: int, attempt: int, where: str,
                        seconds: float, error: BaseException | str,
                        charged: bool = True) -> None:
        self.outcomes[k].attempts.append(
            SliceAttempt(number=attempt, where=where, seconds=seconds,
                         error=str(error), charged=charged))
        now = self.tracer.now()
        self.tracer.add_span(
            "slice.attempt", max(0.0, now - seconds), now, cat="attempt",
            track=self._tracks.place(max(0.0, now - seconds), now),
            args={"slice": k, "attempt": attempt, "where": where,
                  "ok": False, "charged": charged, "error": str(error)})
        if charged:
            self.failures[k] += 1
            self.metrics.inc("superpin.supervisor.failed_attempts")

    def _after_failure(self, k: int, error: BaseException) -> None:
        """Route a charged failure through the policy ladder.

        ``1 + spretries`` attempts where the slice runs, then one
        in-process fallback, then the policy's last word; ``failfast``
        stops at the first rung (the run loop tears the pool down).
        """
        if self.config.spfaults == "failfast":
            raise SliceExecutionError(
                f"slice {k} failed under -spfaults failfast: {error}",
                index=k, attempts=self.outcomes[k].attempts) from error
        if self.failures[k] <= self.config.spretries:
            self.metrics.inc("superpin.supervisor.retries")
            self.tracer.instant("slice.retry", cat="supervisor",
                                args={"slice": k,
                                      "failures": self.failures[k]})
            self._backoff(k)
            self._pending.appendleft(k)
        elif self.failures[k] == self.config.spretries + 1:
            self.metrics.inc("superpin.supervisor.inprocess_fallbacks")
            self._run_inprocess(k)
        else:
            self._exhausted(k, error)

    def _backoff(self, k: int) -> None:
        base = self.config.slice_retry_backoff
        if base > 0:
            time.sleep(base * (2 ** max(0, self.failures[k] - 1)))

    def _exhausted(self, k: int, error: BaseException) -> None:
        """All attempts spent: raise (retry) or degrade (degrade)."""
        if self.config.spfaults == "retry":
            raise SliceExecutionError(
                f"slice {k} failed after "
                f"{self.outcomes[k].num_attempts} attempts: {error}",
                index=k, attempts=self.outcomes[k].attempts) from error
        self.outcomes[k].status = "degraded"
        self.outcomes[k].error = str(error)
        self.metrics.inc("superpin.supervisor.degraded_slices")
        self.tracer.instant("slice.degraded", cat="supervisor",
                            args={"slice": k, "error": str(error)})

    # -- the pool ------------------------------------------------------------

    def _reap_expired(self) -> None:
        """Kill the pool if any in-flight slice blew its deadline.

        A ``ProcessPoolExecutor`` cannot cancel a *running* future, so
        reaping means terminating the worker processes and rebuilding
        the pool.  The expired slice is charged a deadline failure;
        innocent in-flight slices are resubmitted with the same attempt
        number and an untouched retry budget.
        """
        now = time.perf_counter()
        expired, innocent = [], []
        for flight in self._flights.values():
            if (now - flight.started
                    > self.outcomes[flight.index].deadline_seconds):
                expired.append(flight)
            else:
                innocent.append(flight)
        if not expired:
            return
        for flight in expired:
            self.metrics.inc("superpin.supervisor.deadline_hits")
            self.tracer.instant(
                "deadline.reaped", cat="supervisor",
                args={"slice": flight.index, "attempt": flight.attempt,
                      "deadline_seconds":
                          self.outcomes[flight.index].deadline_seconds})
        self._flights.clear()
        self._rebuild_pool()
        for flight in innocent:
            self._record_failure(
                flight.index, flight.attempt, "worker",
                now - flight.started,
                "interrupted by pool teardown (neighbour reaped); "
                "resubmitted", charged=False)
            self._submit(flight.index, attempt=flight.attempt)
        for flight in expired:
            self._record_failure(
                flight.index, flight.attempt, "worker",
                now - flight.started,
                f"deadline exceeded "
                f"({self.outcomes[flight.index].deadline_seconds:.2f}s); "
                f"worker reaped")
            deadline = self.outcomes[flight.index].deadline_seconds
            self._after_failure(
                flight.index,
                TimeoutError(f"slice {flight.index} missed its "
                             f"{deadline:.2f}s deadline"))

    def _rebuild_pool(self) -> None:
        self.metrics.inc("superpin.supervisor.pool_rebuilds")
        self.tracer.instant("pool.rebuild", cat="supervisor")
        self._teardown(self._pool, None)
        self._pool = ProcessPoolExecutor(max_workers=self._workers)

    @staticmethod
    def _teardown(pool, flights) -> None:
        """Shut a pool down promptly: cancel queued work, kill workers.

        ``shutdown(cancel_futures=True)`` alone would wait for running
        (possibly hung) workers, so the worker processes are terminated
        first.  Touches the executor's ``_processes`` map — internal,
        but stable across supported CPythons — and degrades to a plain
        prompt shutdown if it ever disappears.
        """
        if pool is None:
            return
        if flights:
            for future in flights:
                future.cancel()
        try:
            processes = list((getattr(pool, "_processes", None)
                              or {}).values())
            for process in processes:
                process.terminate()
        except Exception:
            processes = []
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for process in processes:
            try:
                process.join(timeout=5.0)
            except Exception:
                pass
