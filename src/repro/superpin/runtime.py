"""SuperPin runtime: the top-level orchestrator.

``run_superpin(program, tool, config)`` performs the full pipeline:

1. **Setup** — the tool registers itself through the SP API (§5).
2. **Control phase** — the master runs uninstrumented under the control
   process, which records syscalls and cuts timeslices (§4.1–§4.3).
3. **Signature phase** — every interior boundary's signature is recorded
   from its snapshot up front, with the adaptive quick-register
   lookahead (§4.4).
4. **Slice phase** — every timeslice re-executes under instrumentation
   from its fork snapshot until it detects the next signature (§3).
   With ``-spworkers N`` the slices fan out over N worker processes
   (:mod:`repro.superpin.parallel`); the default ``-spworkers 0`` runs
   them sequentially in-process with identical results.  The phase runs
   under the :mod:`~repro.superpin.supervisor` fault policy
   (``-spfaults``): per-slice deadlines, bounded retries, and — under
   ``degrade`` — completion with holes instead of an aborted run.
5. **Merge phase** — slice results fold into the shared areas in slice
   order; the master tool's ``fini`` runs last (§4.5).
6. **Timing phase** — the discrete-event scheduler replays the run
   against the machine model to produce virtual wall-clock figures (§6).

Phases 3 and 4 are separate (rather than interleaved per-slice) so that
phase 4 has no ordering constraints at all: every slice's inputs — fork
snapshot, recorded syscalls, end signature — exist before any slice
runs.  This is sound because slice contents are fully determined at
fork time (record/playback removes every kernel dependence), the same
property SuperPin itself relies on.  Alongside the *modeled* timing
figures, the runtime keeps *measured* host wall-clock counters
(:class:`~repro.superpin.parallel.SliceTimings`) so the two can be
compared.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..isa.program import Program
from ..machine.kernel import Kernel
from ..obs.metrics import metrics_for, MetricsRegistry
from ..obs.tracer import ensure_tracer, Tracer
from ..pin.pintool import Pintool
from ..sched.events import simulate
from ..sched.machine_model import MachineModel, PAPER_MACHINE
from ..sched.stats import TimingReport
from ..sched.timing import CostModel, DEFAULT_COST_MODEL
from .api import SliceToolContext, SPControl
from .audit import (AuditInputs, AuditReport, compare_run, perform_audit,
                    reference_from_recording)
from .control import ControlProcess, MasterTimeline
from .journal import (damage_journal, program_digest, run_key, RunJournal)
from .merge import merge_slices
from .parallel import SliceTimings, record_signatures
from .recording import damage_recording, load_recording, save_recording
from .signature import Signature
from .slices import SliceResult
from .supervisor import SliceOutcome, supervise_slices
from .switches import SuperPinConfig
from .trace_store import store_key, tool_fingerprint, trace_store_for


@dataclass
class SuperPinReport:
    """Everything a caller might want to know about one SuperPin run."""

    config: SuperPinConfig
    timeline: MasterTimeline
    slices: list[SliceResult]
    signatures: list[Signature]
    tool: Pintool
    timing: TimingReport | None
    exit_code: int
    #: Measured host wall-clock seconds per slice (pickle/fork/run/merge).
    slice_timings: list[SliceTimings] = field(default_factory=list)
    #: Per-slice supervision records: status, attempt history, deadline.
    slice_outcomes: list[SliceOutcome] = field(default_factory=list)
    #: Indexes of slices the ``degrade`` policy gave up on — holes in
    #: the merge.  Empty on a fully successful run.
    degraded_slices: list[int] = field(default_factory=list)
    #: Measured host seconds spent recording all boundary signatures.
    signature_phase_seconds: float = 0.0
    #: Measured host seconds for the whole slice phase, end to end.
    slice_phase_seconds: float = 0.0
    #: The run's structured trace (repro.obs): phase spans, per-slice
    #: pickle/fork/run/merge spans, supervision events.  None only for
    #: hand-built reports.
    trace: Tracer | None = None
    #: The run's metrics registry (populated under ``-spmetrics``; the
    #: null registry otherwise).  None only for hand-built reports.
    metrics: MetricsRegistry | None = None
    #: Differential audit outcome (``-spaudit`` only; None otherwise).
    audit: AuditReport | None = None
    #: Path of the recording artifact this run saved (``-sprecord``) or
    #: replayed (``-spreplay``); None for plain live runs.
    recording_path: str | None = None
    #: Content address of that artifact (sha256 over section digests).
    recording_id: str = ""

    @property
    def num_slices(self) -> int:
        return len(self.slices)

    @property
    def resumed_slices(self) -> int:
        """Slices adopted from the run journal instead of re-executed."""
        return sum(1 for o in self.slice_outcomes
                   if any(a.where == "journal" for a in o.attempts))

    @property
    def total_slice_instructions(self) -> int:
        return sum(s.instructions for s in self.slices)

    @property
    def all_exact(self) -> bool:
        """True when every slice covered exactly its master interval.

        A degraded run can never be exact: a hole means some interval's
        results are missing from the merge.
        """
        return (not self.degraded_slices
                and all(s.exact for s in self.slices))

    @property
    def stdout(self) -> str:
        return self.timeline.kernel.stdout_text()

    @property
    def measured_parallelism(self) -> float:
        """Aggregate slice-run seconds over elapsed slice-phase seconds.

        Sequentially this hovers just below 1.0 (phase time includes the
        runs plus bookkeeping); with workers on a multi-core host it
        exceeds 1.0 as slice runs overlap.
        """
        if self.slice_phase_seconds <= 0.0:
            return 0.0
        busy = sum(t.run_seconds for t in self.slice_timings)
        return busy / self.slice_phase_seconds

    def detection_summary(self) -> dict[str, float]:
        """Aggregate §4.4 statistics across all detecting slices."""
        quick = sum(s.detection.quick_checks for s in self.slices
                    if s.detection)
        full = sum(s.detection.full_checks for s in self.slices
                   if s.detection)
        stack = sum(s.detection.stack_checks for s in self.slices
                    if s.detection)
        return {
            "quick_checks": quick,
            "full_checks": full,
            "stack_checks": stack,
            "full_check_rate": (full / quick) if quick else 0.0,
        }

    def instrumentation_summary(self) -> dict[str, int]:
        """Selective-instrumentation and suppression totals (-spfilter /
        -spsuppress / -spsample) aggregated across slices."""
        return {
            "analysis_calls": sum(s.analysis_calls for s in self.slices),
            "fastpath_traces": sum(s.fastpath_traces for s in self.slices),
            "skipped_callbacks": sum(s.skipped_callbacks
                                     for s in self.slices),
            "summarized_loops": sum(s.summarized_loops
                                    for s in self.slices),
            "suppressed_calls": sum(s.suppressed_calls
                                    for s in self.slices),
            "lowered_traces": sum(s.lowered_traces for s in self.slices),
            "private_traces": sum(s.private_traces for s in self.slices),
            "tc2_promotions": sum(s.tc2_promotions for s in self.slices),
            "tc2_dispatches": sum(s.tc2_dispatches for s in self.slices),
            "tc2_mispredicts": sum(s.tc2_mispredicts
                                   for s in self.slices),
        }

    def sampling_summary(self) -> dict[str, int]:
        """Sampling coverage (-spsample): which slices carried the tool."""
        sampled = sum(1 for s in self.slices if s.instrumented)
        return {
            "period": self.config.spsample,
            "sampled_slices": sampled,
            "skipped_slices": len(self.slices) - sampled,
        }

    def supervision_summary(self) -> dict[str, float]:
        """Aggregate fault-handling statistics for the slice phase."""
        return {
            "attempts": sum(o.num_attempts for o in self.slice_outcomes),
            "failed_attempts": sum(
                1 for o in self.slice_outcomes
                for a in o.attempts if not a.ok),
            "recovered_slices": sum(
                1 for o in self.slice_outcomes if o.recovered),
            "degraded_slices": len(self.degraded_slices),
        }

    def wallclock_summary(self) -> dict[str, float]:
        """Measured (host) wall-clock figures for the run's phases.

        With no slice timings at all — a degrade-policy run where every
        slice was given up on, or a hand-built report — every figure is
        0.0 rather than a division error or a misleading mean.
        """
        if not self.slice_timings:
            return {
                "signature_phase_seconds": 0.0,
                "slice_phase_seconds": 0.0,
                "slice_run_seconds": 0.0,
                "slice_pickle_seconds": 0.0,
                "slice_fork_seconds": 0.0,
                "slice_merge_seconds": 0.0,
                "mean_slice_run_seconds": 0.0,
                "measured_parallelism": 0.0,
            }
        run_seconds = sum(t.run_seconds for t in self.slice_timings)
        return {
            "signature_phase_seconds": self.signature_phase_seconds,
            "slice_phase_seconds": self.slice_phase_seconds,
            "slice_run_seconds": run_seconds,
            "slice_pickle_seconds": sum(t.pickle_seconds
                                        for t in self.slice_timings),
            "slice_fork_seconds": sum(t.fork_seconds
                                      for t in self.slice_timings),
            "slice_merge_seconds": sum(t.merge_seconds
                                       for t in self.slice_timings),
            "mean_slice_run_seconds": run_seconds / len(self.slice_timings),
            "measured_parallelism": self.measured_parallelism,
        }

    def trace_summary(self) -> str:
        """Render the run's trace (and counters) as an ASCII table.

        Spans aggregate by name — count, total seconds, mean/max
        milliseconds — ordered by total descending, phases first at
        equal totals; metric counters (when ``-spmetrics`` recorded
        any) follow in a second table.
        """
        from ..harness.report import format_table
        if self.trace is None:
            return "  (no trace recorded)"
        by_name: dict[str, list[float]] = {}
        for record in self.trace.records:
            if record.is_instant:
                continue
            by_name.setdefault(record.name, []).append(record.duration)
        rows = []
        for name, durations in sorted(
                by_name.items(), key=lambda item: -sum(item[1])):
            total = sum(durations)
            rows.append([name, len(durations), f"{total:.4f}",
                         f"{1e3 * total / len(durations):.2f}",
                         f"{1e3 * max(durations):.2f}"])
        out = "trace spans:\n" + format_table(
            ["span", "count", "total (s)", "mean (ms)", "max (ms)"], rows)
        if self.metrics is not None and self.metrics.counters:
            counter_rows = [[name, value] for name, value
                            in sorted(self.metrics.counters.items())]
            out += "\ncounters:\n" + format_table(
                ["counter", "value"], counter_rows)
        return out


def run_superpin(program: Program, tool: Pintool,
                 config: SuperPinConfig | None = None,
                 kernel: Kernel | None = None,
                 machine: MachineModel = PAPER_MACHINE,
                 cost: CostModel = DEFAULT_COST_MODEL,
                 compute_timing: bool = True,
                 tracer: Tracer | None = None,
                 on_progress=None) -> SuperPinReport:
    """Run ``program`` with ``tool`` under SuperPin end to end.

    Every run is traced (repro.obs): phases become top-level spans,
    slices become per-track span chains, and supervision incidents
    become instants.  The trace lands on ``report.trace`` (export it
    with ``-sptrace`` / :func:`repro.obs.write_trace`); counters are
    only collected under ``-spmetrics`` and land on ``report.metrics``.
    Pass ``tracer`` to aggregate several runs onto one timeline.

    ``on_progress(event, payload)``, when given, is invoked in this
    process as the run advances — ``("phase", {"phase": name})`` at
    each phase boundary and ``("slice", {completed, total})`` per slice
    result.  The serve daemon forwards these to its clients as
    streaming events; exceptions it raises abort the run (that is how
    job cancellation preempts a running job).
    """
    config = config or SuperPinConfig()
    if not config.sp:
        raise ConfigError("run_superpin called with sp disabled; "
                          "use repro.pin.run_with_pin instead")
    if config.spreplay is not None:
        # Record once, replay many: the artifact supplies everything the
        # slice phase needs, so the master is re-run exactly zero times.
        return replay_recording(config.spreplay, tool, config,
                                machine=machine, cost=cost,
                                compute_timing=compute_timing,
                                tracer=tracer, on_progress=on_progress)
    tracer = ensure_tracer(tracer)
    metrics = metrics_for(config.spmetrics)

    def phase(name: str) -> None:
        if on_progress is not None:
            on_progress("phase", {"phase": name})

    # Selective instrumentation (-spfilter): parse the spec against this
    # program's symbol table and pin it on the tool *before* anything
    # copies the tool — the slice template, and crucially the audit's
    # pristine baseline below, must inherit the same filter so serial
    # Pin and SuperPin produce bit-identical (filtered) tool results.
    if config.spfilter is not None:
        from ..pin.filter import parse_filter
        tool.instrument_filter = parse_filter(config.spfilter, program)

    # The differential audit (-spaudit) re-runs the program from scratch
    # twice, so it needs pristine copies of everything the audited run
    # is about to mutate: the tool *before* setup registers state on it,
    # and the kernel *before* the master consumes its clock/RNG/files.
    audit_inputs: AuditInputs | None = None
    if config.spaudit:
        kernel = kernel if kernel is not None else Kernel()
        audit_inputs = AuditInputs(
            program=program,
            tool=copy.deepcopy(tool),
            reference_kernel=copy.deepcopy(kernel),
            serial_kernel=copy.deepcopy(kernel),
        )

    # The persistent trace store keys entries by the tool's settings,
    # read before setup registers run state on the tool.
    tool_digest = (tool_fingerprint(tool)
                   if config.sptracestore is not None else None)

    # 1. Tool setup through the SP API.
    sp = SPControl(config)
    tool.setup(sp)
    if not sp.initialized:
        raise ConfigError(
            f"tool {tool.name!r} did not call SP_Init; SuperPin requires "
            f"tools written against the SP API (paper §5)")
    template = SliceToolContext.from_control(tool, sp)

    # 2. Control phase: run the master, cut timeslices.
    phase("control")
    with tracer.span("control_phase", cat="phase"):
        control = ControlProcess(program, config, kernel=kernel,
                                 tracer=tracer, metrics=metrics)
        timeline = control.run()

    # 3. Signature phase: all boundary signatures, before any slice runs.
    phase("signature")
    with tracer.span("signature_phase", cat="phase") as signature_span:
        signatures = record_signatures(timeline, config, tracer=tracer)

    # 3b. -sprecord: everything the slice phase consumes now exists, and
    #     nothing has mutated the boundary snapshots yet — serialize the
    #     durable artifact here, before any slice touches a COW fork.
    recording_manifest = None
    if config.sprecord is not None:
        with tracer.span("record_phase", cat="phase"):
            recording_manifest = save_recording(
                config.sprecord, timeline, signatures, config,
                metrics=metrics)

    # 3c. -spjournal / -spresume: open (or resume) the write-ahead run
    #     journal keyed by program + tool + result-affecting config.
    journal = None
    preloaded = None
    if config.spjournal is not None:
        key = run_key(program_digest(program), type(tool).__name__, config)
        if config.spresume:
            journal, preloaded = RunJournal.resume(config.spjournal, key,
                                                   metrics=metrics)
        else:
            journal = RunJournal.create(config.spjournal, key,
                                        metrics=metrics)

    # 3d. -sptracestore: the persistent warm-cache tier.  A hit hands
    #     every slice (pilot included) the stored payload, so a repeat
    #     run compiles zero pilot traces cold; a miss runs the normal
    #     pilot protocol and persists its frozen exports afterwards.
    prewarm, warm_store, save_warm = _trace_store_lookup(
        config, metrics, program_digest(program), tool_digest)

    # 4. Slice phase: sequential in-process, or fanned out (-spworkers),
    #    under the -spfaults supervision policy.
    phase("slice")
    with tracer.span("slice_phase", cat="phase") as slice_span:
        try:
            supervised = supervise_slices(timeline, signatures, template,
                                          sp, config, tracer=tracer,
                                          metrics=metrics, journal=journal,
                                          preloaded=preloaded,
                                          prewarm=prewarm,
                                          warm_store=warm_store,
                                          on_progress=on_progress)
        finally:
            if journal is not None:
                journal.close()
    save_warm(supervised.results)
    _apply_artifact_faults(config, len(timeline.intervals))
    results, timings = supervised.results, supervised.timings
    degraded = supervised.degraded

    # Shared-code-cache attribution (§8) is a slice-ordered post-pass, so
    # the figures do not depend on slice completion order.
    if config.spsharedcache:
        from .sharedcache import charge_slices_in_order
        charge_slices_in_order(results)

    # 5. Merge in slice order, then fini on the master tool.
    phase("merge")
    with tracer.span("merge_phase", cat="phase"):
        merge_seconds = merge_slices(sp, results, tracer=tracer,
                                     metrics=metrics)
    for timing_record in timings:
        timing_record.merge_seconds = merge_seconds.get(
            timing_record.index, 0.0)
    tool.fini()

    # 6. Timing.  A degraded run has holes, and the event simulation
    #    needs every slice's figures — so no timing report for it.
    phase("timing")
    with tracer.span("timing_phase", cat="phase"):
        timing = (simulate(timeline, results, config, machine=machine,
                           cost=cost) if compute_timing and not degraded
                  else None)
    report = SuperPinReport(
        config=config,
        timeline=timeline,
        slices=results,
        signatures=signatures,
        tool=tool,
        timing=timing,
        exit_code=timeline.exit_code,
        slice_timings=timings,
        slice_outcomes=supervised.outcomes,
        degraded_slices=degraded,
        signature_phase_seconds=signature_span.duration,
        slice_phase_seconds=slice_span.duration,
        trace=tracer,
        metrics=metrics,
    )
    if recording_manifest is not None:
        report.recording_path = config.sprecord
        report.recording_id = recording_manifest["recording_id"]

    # 7. Differential audit (-spaudit): reference + serial baseline runs,
    #    then the lockstep comparison.  Detection, not enforcement — a
    #    divergent run still returns its report, with the evidence on it.
    if audit_inputs is not None:
        with tracer.span("audit_phase", cat="phase"):
            report.audit = perform_audit(audit_inputs, report,
                                         tracer=tracer, metrics=metrics)
    return report


def _trace_store_lookup(config: SuperPinConfig, metrics,
                        source_digest: str, tool_digest: str | None):
    """Resolve the persistent trace store for one run.

    ``tool_digest`` is the tool's :func:`tool_fingerprint`; a tool
    without one skips the store (counted as ``persistent_unkeyed``).

    Returns ``(prewarm, warm_store, save_warm)``:

    * ``prewarm`` — the verified stored payload on a hit (every slice
      starts warm, no pilot), else None;
    * ``warm_store`` — on a miss, the
      :class:`~repro.superpin.sharedcache.TemplateStore` the executors
      fold the pilot's exports into;
    * ``save_warm`` — call with the slice results after the slice
      phase; on a miss it persists every shareable template the run
      lowered plus the pilot's chains (no-op on hits or when no store
      is configured).
    """
    store = trace_store_for(config, metrics)
    if store is None:
        return None, None, lambda results: None
    if tool_digest is None:
        metrics.inc("pin.cache.persistent_unkeyed")
        return None, None, lambda results: None
    key = store_key(source_digest, config, tool_digest)
    prewarm = store.load(key)
    if prewarm is not None:
        return prewarm, None, lambda results: None
    from .sharedcache import TemplateStore
    warm_store = TemplateStore()

    def save_warm(results) -> None:
        warm_store.collect_results(results)
        store.save(key, warm_store.persisted())
    return None, warm_store, save_warm


def _apply_artifact_faults(config: SuperPinConfig, num_slices: int) -> None:
    """Fire the fault plan's artifact specs against saved artifacts.

    ``truncate``/``stale`` specs (``-spinject``) damage the just-written
    recording and/or journal — after the save and the journal close, so
    the damage models post-hoc corruption (bit rot, a torn tail), not a
    failed write.
    """
    plan = config.fault_plan
    if plan is None or not hasattr(plan, "artifact_specs"):
        return
    for spec in plan.artifact_specs():
        if config.sprecord is not None and num_slices > 0:
            damage_recording(config.sprecord, spec.kind.value,
                             slice_index=min(spec.slice_index,
                                             num_slices - 1))
        if config.spjournal is not None:
            damage_journal(config.spjournal, spec.kind.value)


def replay_recording(source, tool, config: SuperPinConfig | None = None,
                     machine: MachineModel = PAPER_MACHINE,
                     cost: CostModel = DEFAULT_COST_MODEL,
                     compute_timing: bool = True,
                     tracer: Tracer | None = None, on_progress=None):
    """Replay a recording artifact under one tool — or a list of tools.

    The "replay many" half of ``-sprecord``/``-spreplay``: every run
    sources its boundaries, signatures and recorded syscall streams from
    the verified artifact at ``source``; the master is never re-run (no
    ``control_phase`` or ``signature_phase`` span exists on a replay's
    trace).  Each tool gets a *fresh* timeline, so nothing loaded is
    shared between runs.

    Pass a list/tuple of tools to amortize "record once" across many
    analyses: returns a list of reports in tool order.  Under
    ``-spfaults degrade`` a damaged slice section degrades that slice
    (hole in the merge) instead of failing the whole replay; any other
    policy raises :class:`~repro.errors.RecordingCorruptError` on load.
    """
    config = config or SuperPinConfig()
    single = not isinstance(tool, (list, tuple))
    tools = [tool] if single else list(tool)
    if config.spfilter is not None:
        raise ConfigError(
            "-spfilter needs the program's symbol table, which a "
            "recording artifact does not carry; apply the filter at "
            "record time instead")
    reports = [_replay_one(source, one, config, machine, cost,
                           compute_timing, tracer, on_progress)
               for one in tools]
    return reports[0] if single else reports


def _replay_one(source, tool: Pintool, config: SuperPinConfig,
                machine: MachineModel, cost: CostModel,
                compute_timing: bool, tracer,
                on_progress=None) -> SuperPinReport:
    tracer = ensure_tracer(tracer)
    metrics = metrics_for(config.spmetrics)

    # Load and verify the artifact.  Only the degrade policy may adopt a
    # per-slice hole; everything else must reject damage outright.
    with tracer.span("replay_load", cat="phase"):
        recording = load_recording(
            source, metrics=metrics,
            tolerate_damaged=config.spfaults == "degrade")

    tool_digest = (tool_fingerprint(tool)
                   if config.sptracestore is not None else None)
    sp = SPControl(config)
    sp.replay_source = recording.path
    tool.setup(sp)
    if not sp.initialized:
        raise ConfigError(
            f"tool {tool.name!r} did not call SP_Init; SuperPin requires "
            f"tools written against the SP API (paper §5)")
    template = SliceToolContext.from_control(tool, sp)

    timeline = recording.build_timeline()
    signatures = recording.signatures()

    journal = None
    preloaded = None
    if config.spjournal is not None:
        key = run_key(recording.recording_id, type(tool).__name__, config)
        if config.spresume:
            journal, preloaded = RunJournal.resume(config.spjournal, key,
                                                   metrics=metrics)
        else:
            journal = RunJournal.create(config.spjournal, key,
                                        metrics=metrics)

    # Persistent trace store (-sptracestore): replays key their entries
    # by recording id — a recording's slice shapes are its own, so a
    # second replay of the same artifact starts warm (satellite fix:
    # replays/resumes no longer bypass the warm tier).
    prewarm, warm_store, save_warm = _trace_store_lookup(
        config, metrics, recording.recording_id, tool_digest)

    if on_progress is not None:
        on_progress("phase", {"phase": "slice"})
    with tracer.span("slice_phase", cat="phase") as slice_span:
        try:
            supervised = supervise_slices(timeline, signatures, template,
                                          sp, config, tracer=tracer,
                                          metrics=metrics, journal=journal,
                                          preloaded=preloaded,
                                          damaged=recording.damaged,
                                          prewarm=prewarm,
                                          warm_store=warm_store,
                                          on_progress=on_progress)
        finally:
            if journal is not None:
                journal.close()
    save_warm(supervised.results)
    _apply_artifact_faults(config, len(timeline.intervals))
    results, timings = supervised.results, supervised.timings
    degraded = supervised.degraded
    metrics.inc("superpin.recording.replayed_slices", len(results))

    if config.spsharedcache:
        from .sharedcache import charge_slices_in_order
        charge_slices_in_order(results)

    with tracer.span("merge_phase", cat="phase"):
        merge_seconds = merge_slices(sp, results, tracer=tracer,
                                     metrics=metrics)
    for timing_record in timings:
        timing_record.merge_seconds = merge_seconds.get(
            timing_record.index, 0.0)
    tool.fini()

    with tracer.span("timing_phase", cat="phase"):
        timing = (simulate(timeline, results, config, machine=machine,
                           cost=cost) if compute_timing and not degraded
                  else None)
    report = SuperPinReport(
        config=config,
        timeline=timeline,
        slices=results,
        signatures=signatures,
        tool=tool,
        timing=timing,
        exit_code=timeline.exit_code,
        slice_timings=timings,
        slice_outcomes=supervised.outcomes,
        degraded_slices=degraded,
        slice_phase_seconds=slice_span.duration,
        trace=tracer,
        metrics=metrics,
        recording_path=recording.path,
        recording_id=recording.recording_id,
    )

    # -spaudit on a replay is free: the artifact carries the reference
    # checkpoints and stream digests, so the oracle compares against
    # recorded truth without re-running anything.
    if config.spaudit:
        with tracer.span("audit_phase", cat="phase"):
            reference = reference_from_recording(recording.meta)
            report.audit = compare_run(report, reference, None)
        metrics.inc("superpin.audit.checks", report.audit.checks)
        metrics.inc("superpin.audit.divergences",
                    len(report.audit.divergences))
        for kind, count in sorted(report.audit.by_kind().items()):
            metrics.inc(f"superpin.audit.divergence.{kind}", count)
    return report
