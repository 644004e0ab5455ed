"""Benchmark ``run_superpin`` end to end and attribute its time per layer.

Entry point: ``perfbench/run.py``.

Load: a closed loop with one client in this one process.  Each
operation is one ``run_superpin(program, tool, config, kernel)`` call
on freshly built inputs; the next starts only after the previous one
has finished and been checked against the direct-interpreter
reference.  Operations start while the run's median operation still
fits in ``--seconds``.

``--seed`` (default: the suite spec's own seed) generates the programs.
``--trace 0`` cycles over the panel of programs it stands for
(``workloads.panel``), measures with ``-spmetrics`` off and reports:

* ``setup_s``     median seconds to build program, tool and kernel
                  (every operation's set-up plus extra set-ups first);
* ``run_s``       median wall seconds of one operation; the sample
                  count is ``attempted``;
* ``guest_mips``  median guest instructions retired under
                  instrumentation (sum of slice instructions) per
                  microsecond of ``run_s``, i.e. millions per second;
* ``peak_rss_mb`` peak RSS of this process plus the largest worker child;
* ``ops_ok_frac`` operations that matched the reference, over attempted.

Seconds are host seconds at the reference host speed: each interval is
timed inside a ``hostspeed.Window`` and scaled by how fast a fixed probe
ran around and during it, which takes out most of the drift in the
speed of a shared machine.  The unscaled medians are printed as
``host.*`` lines, outside the JSON result.

``--trace 1`` uses the seed's own program only.  It rotates three
operations — untraced, traced (layer spans
from ``perfbench/layers.py`` plus ``-spmetrics``), and traced under a
null tool — and reports the traced median operation's per-layer
breakdown, ``tool.s`` (traced minus null-tool run time) and
``trace_overhead_s`` (traced minus untraced run time).

Every metric is printed as ``name value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

from repro.superpin import run_superpin

from perfbench import workloads
from perfbench.hostspeed import Window
from perfbench.layers import layer_metrics, LayerClock

#: Host seconds of extra set-ups timed before the first operation, so
#: ``setup_s`` is a median over many samples even when few operations
#: fit in a run.
SETUP_SECONDS = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "guest_mips": "Minstr/s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "frac",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_q"):
        return "%"
    if name.endswith((".s", "_s")) or name.startswith("slice.run_s"):
        return "s"
    if name.endswith(("ratio", "rate", "parallelism")):
        return "ratio"
    if name.endswith("cycles"):
        return "cycles"
    return "count"


@dataclass
class Outcome:
    seed: int
    #: Converts this operation's host seconds to reference-speed ones.
    factor: float
    setup_s: float
    run_s: float
    instructions: int
    fingerprint: tuple | None
    problems: list[str]
    layers: dict | None = None


def operate(workload, seed, ref, tool_type=None, clock=None) -> Outcome:
    """One checked operation on the program generated from ``seed``;
    ``clock`` turns on layer tracing."""
    gc.collect()
    config = workloads.config(workload, metrics=clock is not None)
    # Probes would land inside the layer spans of a traced operation.
    window = Window(tick=workload.spworkers == 0)
    run_s = float("nan")
    try:
        with window if clock is None else nullcontext():
            started = window.clock()
            program, tool, kernel = workloads.setup(workload, seed, tool_type)
            setup_s = window.clock() - started
            with clock.installed() if clock is not None else nullcontext():
                started = window.clock()
                report = run_superpin(program, tool, config, kernel=kernel)
                run_s = window.clock() - started
    except Exception:
        traceback.print_exc()
        return Outcome(seed, 1.0, float("nan"), run_s, 0, None, ["raised"])
    layers = None
    if clock is not None:
        layers = layer_metrics(report, clock, run_s)
    return Outcome(seed, window.factor, setup_s, run_s,
                   report.total_slice_instructions,
                   workloads.fingerprint(report),
                   workloads.check(report, tool, ref), layers)


def closed_loop(seconds: float, round_fn) -> list[list[Outcome]]:
    """Call ``round_fn(index)`` while the median round still fits in
    ``seconds``; at least once."""
    rounds: list[list[Outcome]] = []
    durations: list[float] = []
    begun = time.perf_counter()
    while not durations or (time.perf_counter() - begun
                            + statistics.median(durations) <= seconds):
        started = time.perf_counter()
        rounds.append(round_fn(len(rounds)))
        durations.append(time.perf_counter() - started)
    return rounds


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def tally(outcomes: list[Outcome]) -> tuple[int, int]:
    """(attempted, failed); an operation whose fingerprint differs from
    that of the first correct operation on the same program also
    fails."""
    first: dict[int, tuple] = {}
    failed = 0
    for o in outcomes:
        if not o.problems:
            expected = first.setdefault(o.seed, o.fingerprint)
            if o.fingerprint != expected:
                o.problems.append(f"fingerprint {o.fingerprint} != "
                                  f"{expected}")
        if o.problems:
            failed += 1
            print(f"perfbench: operation on seed {o.seed} failed: "
                  f"{'; '.join(o.problems)}", file=sys.stderr)
    return len(outcomes), failed


def measure(workload, seed, seconds) -> dict:
    seeds = workloads.panel(seed)
    setups = []
    with Window() as window:
        while sum(setups) < SETUP_SECONDS:
            started = window.clock()
            workloads.setup(workload, seeds[len(setups) % len(seeds)])
            setups.append(window.clock() - started)
    scaled_setups = [s * window.factor for s in setups]
    refs = {}

    def round_(index: int) -> list[Outcome]:
        program_seed = seeds[index % len(seeds)]
        if program_seed not in refs:
            refs[program_seed] = workloads.reference(workload, program_seed)
        return [operate(workload, program_seed, refs[program_seed])]

    outcomes = [r[0] for r in closed_loop(seconds, round_)]
    attempted, failed = tally(outcomes)
    good = [o for o in outcomes if not o.problems]
    setups += [o.setup_s for o in good]
    scaled_setups += [o.setup_s * o.factor for o in good]

    def median(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    metrics = {
        "setup_s": median(scaled_setups),
        "run_s": median(o.run_s * o.factor for o in good),
        "guest_mips": median(o.instructions / (o.run_s * o.factor) / 1e6
                             for o in good),
        "peak_rss_mb": peak_rss_mb(),
        "ops_ok_frac": (attempted - failed) / attempted,
    }
    notes = {
        "host.setup_s": (median(setups), "s"),
        "host.run_s": (median(o.run_s for o in good), "s"),
        "host.guest_mips": (median(o.instructions / o.run_s / 1e6
                                   for o in good), "Minstr/s"),
        "host.factor": (median(o.factor for o in outcomes), "ratio"),
    }
    return {"attempted": attempted, "failed": failed,
            "metrics": {name: (value, END_TO_END_UNITS[name])
                        for name, value in metrics.items()},
            "notes": notes}


def traced_operation(workload, seed, ref, tool_type=None) -> Outcome:
    clock = LayerClock()
    try:
        return operate(workload, seed, ref, tool_type, clock)
    finally:
        clock.close()


def measure_traced(workload, seed, seconds) -> dict:
    # Only the seed's own program, so per-layer counts repeat exactly
    # from run to run.
    ref = workloads.reference(workload, seed)
    rounds = closed_loop(seconds, lambda index: [
        operate(workload, seed, ref),
        traced_operation(workload, seed, ref),
        traced_operation(workload, seed, ref, workloads.NullTool)])
    attempted, failed = tally([o for r in rounds for o in r[:2]])
    null_attempted, null_failed = tally([r[2] for r in rounds])
    attempted += null_attempted
    failed += null_failed
    ok = [r for r in rounds if not any(o.problems for o in r)]
    if not ok:
        return {"attempted": attempted, "failed": failed, "metrics": {}}
    plain = statistics.median(r[0].run_s for r in ok)
    null = statistics.median(r[2].run_s for r in ok)
    # The median traced operation's breakdown, whole, so its self
    # times and unattributed_s still add up to its run time.
    ordered = sorted((r[1] for r in ok), key=lambda o: o.run_s)
    breakdown = dict(ordered[(len(ordered) - 1) // 2].layers)
    breakdown["traced.run_s"] = breakdown.pop("run_s")
    traced_s = statistics.median(o.run_s for o in ordered)
    breakdown["tool.s"] = traced_s - null
    breakdown["trace_overhead_s"] = traced_s - plain
    return {"attempted": attempted, "failed": failed,
            "metrics": {name: (value, unit_of(name))
                        for name, value in breakdown.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload generator and kernel seed "
                             "(default: the suite spec's own seed)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    seed = args.seed if args.seed is not None \
        else workloads.default_seed(workload)

    run = measure_traced if args.trace else measure
    result = run(workload, seed, args.seconds)

    for name, (value, unit) in {**result.get("notes", {}),
                                **result["metrics"]}.items():
        print(f"{name:28s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0
