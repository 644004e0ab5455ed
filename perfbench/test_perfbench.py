"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.hostspeed import Window
from perfbench.layers import LayerClock
from perfbench.bench import END_TO_END_UNITS, operate, unit_of

ROOT = Path(__file__).resolve().parent.parent


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_output_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == END_TO_END_UNITS

    plain = _result(_bench("--workload", "mcf-icount2", "--seconds", "1",
                           "--trace", "0"))
    traced = _result(_bench("--workload", "mcf-icount2", "--seconds", "1",
                            "--trace", "1"))
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == {m["name"]: m["unit"] for m in spec[section]}
    for m in spec["per_layer"]:
        assert unit_of(m["name"]) == m["unit"]
    assert all(m["value"] > 0 for m in plain["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "mcf-icount2", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_operations_repeat_exactly_and_layers_add_up(name):
    workload = workloads.WORKLOADS[name]
    seed = workloads.default_seed(workload)
    ref = workloads.reference(workload, seed)

    plain = operate(workload, seed, ref)
    clock = LayerClock()
    try:
        traced = operate(workload, seed, ref, clock=clock)
    finally:
        clock.close()
    assert plain.problems == [] and traced.problems == []
    # Slice count, guest instructions, sched.total_cycles, tc2.promotions.
    assert plain.fingerprint == traced.fingerprint

    layers = traced.layers
    assert layers["sched.total_cycles"] == plain.fingerprint[2]
    assert layers["tc2.promotions"] == plain.fingerprint[3]
    assert layers["jit.calls"] >= layers["cache.compiles_reported"] > 0
    assert 0.0 <= layers["unattributed_s"] < 0.05 * traced.run_s
    if workload.spworkers:
        assert layers["slices.pickle_s"] > 0.0
        assert layers["slices.parallelism"] > 1.0
        assert layers["jit.s"] > layers["jit.self_s"]
    if name == "gcc-icount2":
        assert layers["jit.self_s"] > 0.5 * layers["slices.s"]


def test_check_rejects_a_wrong_reference():
    workload = workloads.WORKLOADS["mcf-icount2"]
    seed = 7
    ref = workloads.reference(workload, seed)
    assert operate(workload, seed, ref).problems == []
    for wrong in (dataclasses.replace(ref, instructions=ref.instructions + 1),
                  dataclasses.replace(ref, exit_code=ref.exit_code + 1),
                  dataclasses.replace(ref, stdout=ref.stdout + "x")):
        assert operate(workload, seed, wrong).problems


def test_window_leaves_probes_out_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with Window() as window:
        started, wall = window.clock(), time.perf_counter()
        while time.perf_counter() - wall < 0.5:
            pass
        inside, wall = window.clock() - started, time.perf_counter() - wall
    assert len(window.samples) > 2 * Window.EDGE
    assert 0 < window.stolen and inside == pytest.approx(
        wall - window.stolen, abs=1e-3)
    assert window.factor > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    with Window(tick=False) as window:
        time.sleep(0.3)
    assert len(window.samples) == 2 * Window.EDGE and window.stolen == 0
