"""Cross-slice warm code cache (-spwarmcache): compile once per run.

Every trace lowers into a VM-independent template once; later installs
bind the template to their own engine and tool copy.  Sequential slices
share one live template cache; worker slices receive the pilot's
templates, frozen.  The properties under test:

- warm starts actually happen, and they replace lowering (the counters
  count real work);
- warm execution is *architecturally invisible* — tool output and every
  per-slice figure are byte-identical with the switch on or off, for
  both backends and any worker count;
- supervisor retries re-receive the same frozen payload;
- a degraded pilot falls back to per-slice lowering instead of wedging;
- a template is rejected when the code words differ, when a forced
  boundary falls inside its span, or when its forced cut moves;
- a finished slice's engine is freed by reference counting alone.
"""

import gc
import weakref

import pytest

from repro.isa import assemble
from repro.machine import Kernel, load_program
from repro.pin import PinVM, RunState
from repro.pin.template import TemplateCache, TraceTemplate
from repro.superpin import (FaultPlan, run_superpin, SuperPinConfig)
from repro.superpin import supervisor
from repro.superpin.sharedcache import (export_templates, TemplatePayload,
                                        TemplateStore)
from repro.superpin.slices import SliceResult
from repro.tools import ICount2, OpcodeMix
from tests.conftest import LOOP_SUM, MULTISLICE

BACKENDS = ["closure", "source"]
WORKER_MODES = [0, 2]


def _report(program, tool_cls=ICount2, **kwargs):
    kwargs.setdefault("spmsec", 500)
    kwargs.setdefault("clock_hz", 10_000)
    tool = tool_cls()
    report = run_superpin(program, tool, SuperPinConfig(**kwargs),
                          kernel=Kernel(seed=42))
    return report, tool


def _fingerprint(report):
    return [(s.index, s.reason, s.exact, s.instructions,
             s.expected_instructions, s.traces_executed, s.analysis_calls,
             s.compiles, s.compiled_ins, s.replayed_syscalls,
             s.emulated_syscalls, s.cow_faults, s.compile_log)
            for s in report.slices]


@pytest.fixture(scope="module")
def program():
    return assemble(MULTISLICE)


class TestWarmStartsHappen:
    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_later_slices_start_warm(self, program, backend, spworkers):
        report, _ = _report(program, jit_backend=backend,
                            spworkers=spworkers)
        assert report.num_slices >= 3
        by_index = {s.index: s for s in report.slices}
        # The pilot lowers its working set; its exports are folded then
        # stripped.
        assert by_index[0].cold_compiles > 0
        assert by_index[0].warm_exports is None
        # The application working set recurs, so later slices bind
        # templates instead of lowering — and warm installs still count
        # as ordinary compiles.
        assert sum(s.warm_starts for s in report.slices[1:]) > 0
        for s in report.slices:
            assert s.warm_starts <= s.compiles
            # Every install either bound a cached template or lowered.
            assert s.warm_starts + s.lowered_traces >= s.compiles

    def test_metrics_counter_folded(self, program):
        report, _ = _report(program, spworkers=2, spmetrics=True,
                            jit_backend="source")
        counters = dict(report.metrics.counters)
        assert counters["pin.cache.warm_starts"] > 0
        assert counters["pin.cache.linked_dispatches"] > 0
        # Each dispatcher compile either bound a cached template or
        # lowered (no exact-budget step traces in a plain run).
        assert counters["pin.jit.lowered_traces"] \
            == counters["pin.jit.compiles"] \
            - counters["pin.cache.warm_starts"]
        assert counters["pin.jit.lowered_ins"] \
            < counters["pin.cache.compiled_ins"]

    def test_switch_off_runs_cold(self, program):
        report, _ = _report(program, spwarmcache=False, spworkers=2)
        assert all(s.warm_starts == 0 for s in report.slices)
        assert all(s.warm_exports is None for s in report.slices)
        assert all(s.lowered_traces >= s.compiles for s in report.slices)

    def test_sequential_slices_share_one_cache(self, program):
        """Sequential slices read and extend one live cache: the run
        lowers no more than the pilot protocol would, and far fewer
        traces than it installs."""
        seq, _ = _report(program)
        par, _ = _report(program, spworkers=2)
        lowered = sum(s.lowered_traces for s in seq.slices)
        assert lowered <= sum(s.lowered_traces for s in par.slices)
        assert lowered < sum(s.compiles for s in seq.slices)


class TestArchitecturalIdentity:
    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warm_on_off_identical(self, program, backend, spworkers):
        warm_report, warm_tool = _report(program, jit_backend=backend,
                                         spworkers=spworkers)
        cold_report, cold_tool = _report(program, jit_backend=backend,
                                         spworkers=spworkers,
                                         spwarmcache=False,
                                         splinktraces=False)
        assert warm_tool.total == cold_tool.total
        assert warm_report.stdout == cold_report.stdout
        assert warm_report.exit_code == cold_report.exit_code
        assert _fingerprint(warm_report) == _fingerprint(cold_report)
        assert warm_report.detection_summary() \
            == cold_report.detection_summary()

    def test_timing_model_unaffected(self, program):
        """The virtual timing figures are computed from compile counts
        a warm start must not perturb."""
        warm_report, _ = _report(program, spworkers=2)
        cold_report, _ = _report(program, spworkers=2, spwarmcache=False)
        assert warm_report.timing.total_cycles \
            == cold_report.timing.total_cycles

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_opcodemix_stays_exact(self, program, backend):
        """OpcodeMix instruments through per-trace closures
        (``bump_factory``), so its templates are private: every trace
        lowers per slice, and the mix is exact either way."""
        warm_report, warm_tool = _report(program, OpcodeMix,
                                         jit_backend=backend)
        _, cold_tool = _report(program, OpcodeMix, jit_backend=backend,
                               spwarmcache=False)
        assert warm_tool.report() == cold_tool.report()
        assert warm_tool.total == sum(s.instructions
                                      for s in warm_report.slices)
        for s in warm_report.slices:
            assert s.cold_compiles == 0
            assert s.warm_starts == 0


class TestSupervisionInteraction:
    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    def test_retried_slice_rereceives_payload(self, program, spworkers):
        """A crash-then-retry on a non-pilot slice must re-ship the same
        frozen warm payload — the retried attempt still starts warm and
        the output is identical to a clean run."""
        clean_report, clean_tool = _report(program, spworkers=spworkers)
        report, tool = _report(program, spworkers=spworkers,
                               spfaults="retry",
                               fault_plan=FaultPlan.parse("crash@2"))
        assert report.slice_outcomes[2].recovered
        by_index = {s.index: s for s in report.slices}
        assert by_index[2].warm_starts > 0
        assert tool.total == clean_tool.total
        assert _fingerprint(report) == _fingerprint(clean_report)

    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    def test_degraded_pilot_falls_back_cold(self, program, spworkers):
        """If the pilot slice itself is unrecoverable under -spfaults
        degrade, the rest of the run proceeds without a payload rather
        than waiting for exports that will never come: every slice
        lowers its own working set."""
        report, _ = _report(program, spworkers=spworkers,
                            spfaults="degrade", spretries=1,
                            fault_plan=FaultPlan.parse("crash@0:*"))
        assert report.degraded_slices == [0]
        assert 0 not in {s.index for s in report.slices}
        assert all(s.cold_compiles > 0 for s in report.slices)
        assert all(s.exact for s in report.slices)


def _vm(program, backend="closure", forced=frozenset(), templates=None):
    process = load_program(program, Kernel(seed=42))
    vm = PinVM(process, jit_backend=backend, forced_boundaries=forced)
    vm.templates = templates
    return vm


def _shape_and_cache(program, backend):
    """A cache filled by one plain run of ``program``."""
    cache = TemplateCache()
    vm = _vm(program, backend, templates=cache)
    assert vm.run().state is RunState.EXIT
    return vm.template_shape, cache


class TestConsistencyCheck:
    def test_mismatched_source_compiles_cold(self):
        """A template whose code words differ from the engine's memory
        is rejected and the trace lowers cold — foreign code never
        executes (both backends)."""
        program = assemble(LOOP_SUM)
        other = assemble(LOOP_SUM.replace("li   t1, 100", "li   t1, 50"))
        for backend in BACKENDS:
            shape, cache = _shape_and_cache(program, backend)
            vm = _vm(other, backend, templates=cache)
            assert cache.lookup(shape, other.entry, vm.mem,
                                frozenset()) is None
            result = vm.run()
            assert result.state is RunState.EXIT
            assert vm.exit_code == sum(range(50))
            # The loop body is the same code in both programs: it binds.
            assert vm.cache.stats.warm_starts > 0
            assert vm.cache.stats.lowered_traces > 0

    def test_template_serves_every_matching_install(self):
        """A template is not consumed: every engine whose memory and
        forced boundaries match binds it, and none of them lowers."""
        program = assemble(LOOP_SUM)
        for backend in BACKENDS:
            _, cache = _shape_and_cache(program, backend)
            for _ in range(3):
                vm = _vm(program, backend, templates=cache)
                assert vm.run().state is RunState.EXIT
                assert vm.exit_code == sum(range(100))
                assert vm.cache.stats.lowered_traces == 0
                assert vm.cache.stats.warm_starts \
                    == vm.cache.stats.compiles


class TestTemplateRejection:
    def test_forced_boundary_inside_span_rejects(self):
        program = assemble(LOOP_SUM)
        shape, cache = _shape_and_cache(program, "closure")
        inside = program.entry + 2
        vm = _vm(program, forced=frozenset({inside}), templates=cache)
        assert cache.lookup(shape, program.entry, vm.mem,
                            vm.forced_boundaries) is None
        # A boundary at the head rejects too: that instruction would
        # carry the boundary's own instrumentation.
        assert cache.lookup(shape, program.entry, vm.mem,
                            frozenset({program.entry})) is None
        assert vm.run().state is RunState.EXIT
        assert vm.exit_code == sum(range(100))

    def test_forced_cut_must_not_move(self):
        """A template cut short by a forced boundary is valid only where
        that boundary still exists; elsewhere the trace would run on."""
        program = assemble(LOOP_SUM)
        cache = TemplateCache()
        cut = program.entry + 2
        vm = _vm(program, forced=frozenset({cut}), templates=cache)
        assert vm.run().state is RunState.EXIT
        shape = vm.template_shape
        head = cache.lookup(shape, program.entry, vm.mem, frozenset({cut}))
        assert head is not None and head.forced_cut == cut
        assert head.num_ins == 2
        plain = _vm(program)
        assert cache.lookup(shape, program.entry, plain.mem,
                            frozenset()) is None
        assert cache.lookup(shape, program.entry, plain.mem,
                            frozenset({program.entry + 40})) is None

    def test_other_instrumentation_never_shares(self):
        """Engines instrumented differently have different shapes, so a
        tool-free engine never binds an instrumented template."""
        program = assemble(LOOP_SUM)
        cache = TemplateCache()
        instrumented = _vm(program, templates=cache)
        ICount2().activate(instrumented)
        instrumented.run()
        bare = _vm(program, templates=cache)
        assert bare.template_shape != instrumented.template_shape
        bare.run()
        assert bare.cache.stats.warm_starts == 0
        assert bare.counters[0] == 0


class TestStoreSemantics:
    @staticmethod
    def _pilot(starts, chains=()):
        templates = TemplateCache()
        for start in starts:
            templates.add(("shape",), TraceTemplate(
                start=start, words=(start,), forced_cut=None,
                fall_address=None, bbl_sizes=[1], stats=(0, 0, 0),
                body=(), shareable=True))
        result = SliceResult.__new__(SliceResult)
        result.warm_exports = export_templates(templates)
        result.sb_chains = chains
        return result

    def test_fold_first_wins_and_freeze_sorts(self):
        store = TemplateStore()
        first = store.fold_pilot(self._pilot([16, 8], chains=((8, 16),)))
        second = store.fold_pilot(self._pilot([99]))
        assert second is first
        assert [t.start for t in first.templates] == [8, 16]
        assert first.chains == ((8, 16),)
        assert store.freeze() is first

    def test_fold_after_freeze_is_noop(self):
        """Retries must never mutate the frozen payload: every slice,
        on any attempt, sees the same warm set."""
        store = TemplateStore()
        pilot = self._pilot([8])
        payload = store.fold_pilot(pilot)
        assert pilot.warm_exports is None  # stripped once folded
        store.fold_pilot(self._pilot([99]))
        assert store.freeze() is payload
        assert len(payload) == 1
        assert payload.blob == TemplatePayload(payload.templates).blob


class TestFreedByRefcount:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_slice_vm_dead_when_run_slice_returns(self, program, backend,
                                                  monkeypatch):
        """With the cyclic collector off, every slice engine — TC2,
        links, detector and tool callbacks included — must be freed the
        moment ``run_slice`` returns."""
        engines = []
        original_close = PinVM.close

        def close(vm):
            engines.append(weakref.ref(vm))
            original_close(vm)

        original_run_slice = supervisor.run_slice
        leaked = []

        def run_slice(*args, **kwargs):
            result = original_run_slice(*args, **kwargs)
            leaked.extend(ref for ref in engines if ref() is not None)
            return result

        monkeypatch.setattr(PinVM, "close", close)
        monkeypatch.setattr(supervisor, "run_slice", run_slice)
        enabled = gc.isenabled()
        gc.disable()
        try:
            # In-process: the engines must be observable from here.
            report, _ = _report(program, jit_backend=backend, sptc2=4,
                                spworkers=0)
        finally:
            if enabled:
                gc.enable()
        assert len(engines) == report.num_slices >= 3
        assert sum(s.tc2_promotions for s in report.slices) > 0
        assert leaked == []
