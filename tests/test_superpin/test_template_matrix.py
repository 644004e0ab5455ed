"""Trace templates are invisible across the whole configuration space.

Sharing lowered traces between slices (``-spwarmcache 1``) must change
host work only: merged tool results, a clean ``-spaudit``, every
slice's ``compile_log`` and ``compiles``, and the virtual-time figures
are byte-identical to the cold reference (``-spwarmcache 0``).

The full matrix — every tool in ``repro.tools`` x both JIT backends x
``-sptc2 0/16`` x ``-spsuppress 0/1`` x ``-spworkers 0/2`` on gcc, mcf
and swim at scale 0.1 — runs with ``SUPERPIN_FULL_MATRIX=1`` (about
7 minutes on a 2-core machine).  By default a covering subset runs:
every tool once, every axis value and every workload at least twice.
"""

import itertools
import os

import pytest

from repro.machine import Kernel
from repro.superpin import run_superpin, SuperPinConfig
from repro.tools import TOOLS
from repro.workloads import build

WORKLOADS = ("gcc", "mcf", "swim")
AXES = list(itertools.product(("closure", "source"), (0, 16), (False, True),
                              (0, 2)))


def _cells():
    if os.environ.get("SUPERPIN_FULL_MATRIX") == "1":
        return [(tool, workload) + axes for tool in sorted(TOOLS)
                for workload in WORKLOADS for axes in AXES]
    # Covering subset: walk the axis combinations with a stride coprime
    # to their count, so consecutive tools land far apart.
    return [(tool, WORKLOADS[i % 3]) + AXES[(5 * i) % len(AXES)]
            for i, tool in enumerate(sorted(TOOLS))]


_PROGRAMS = {}


def _program(workload: str, clock_hz: int):
    key = (workload, clock_hz)
    if key not in _PROGRAMS:
        _PROGRAMS[key] = build(workload, clock_hz=clock_hz,
                               scale=0.1).program
    return _PROGRAMS[key]


def _run(tool_name, workload, backend, tc2, suppress, workers, warm):
    config = SuperPinConfig(jit_backend=backend, sptc2=tc2,
                            spsuppress=suppress, spworkers=workers,
                            spwarmcache=warm, spaudit=True)
    tool = TOOLS[tool_name]()
    report = run_superpin(_program(workload, config.clock_hz), tool, config,
                          kernel=Kernel(seed=42))
    return report, tool


def _observable(report, tool):
    return {
        "tool": tool.report(),
        "stdout": report.stdout,
        "exit_code": report.exit_code,
        "slices": [(s.index, s.reason, s.instructions, s.analysis_calls,
                    s.inline_checks, s.compiles, s.compiled_ins,
                    s.compile_log, s.cache_allocated_words,
                    s.fastpath_traces, s.summarized_loops,
                    s.suppressed_calls) for s in report.slices],
        "total_cycles": report.timing.total_cycles,
        "master_finish_cycles": report.timing.master_finish_cycles,
    }


@pytest.mark.parametrize(
    "tool_name,workload,backend,tc2,suppress,workers", _cells(),
    ids=lambda value: str(value))
def test_warm_templates_invisible(tool_name, workload, backend, tc2,
                                  suppress, workers):
    axes = (tool_name, workload, backend, tc2, suppress, workers)
    warm, warm_tool = _run(*axes, warm=True)
    cold, cold_tool = _run(*axes, warm=False)
    # The audit verdict is identical either way — and clean, except for
    # the sampler, whose SP_EndSlice cuts slices short of the master's
    # intervals by design (the audit reports that with or without the
    # warm cache).
    assert warm.audit.summary() == cold.audit.summary()
    if tool_name != "sampler":
        assert warm.audit.ok, warm.audit.summary()
    assert _observable(warm, warm_tool) == _observable(cold, cold_tool)
    assert sum(s.warm_starts for s in cold.slices) == 0
