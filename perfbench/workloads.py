"""The benchmark's workloads, their inputs and the correctness oracle.

Every operation starts from the state a user's single ``superpin run``
starts from: a freshly generated ``Program``, a new tool, a new
``Kernel(seed)``, and the persistent trace store off.  The reference
each operation is checked against comes from the direct interpreter
(``run_to_completion``), never from the pin engine being measured.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from repro.isa.program import Program
from repro.machine import Kernel, load_program
from repro.machine.interpreter import run_to_completion
from repro.pin.pintool import Pintool
from repro.superpin import SuperPinConfig
from repro.superpin.runtime import SuperPinReport
from repro.tools import ICount1, ICount2
from repro.workloads import build_workload, SPEC2000


@dataclass(frozen=True)
class Workload:
    name: str
    #: SPEC-like suite program (``repro.workloads.SPEC2000`` key).
    program: str
    tool: type[Pintool]
    spworkers: int
    why: str


WORKLOADS = {w.name: w for w in [
    Workload(
        "gcc-icount2", "gcc", ICount2, 0,
        "huge low-reuse code footprint: ~26k Jit.compile calls for ~270 "
        "trace heads, most of the run compiling; shows compile-once and "
        "the JIT backend"),
    Workload(
        "mcf-icount2", "mcf", ICount2, 0,
        "~38 trace heads, compiling under 20%; time goes to tier-1/TC2 "
        "execution with many superblock mispredicts; shows TC2 policy"),
    Workload(
        "swim-icount1-w2", "swim", ICount1, 2,
        "140 slices pickled and forked over two workers, the master on "
        "the critical path, one analysis call per instruction"),
]}


class NullTool(Pintool):
    """Calls ``SP_Init``, instruments nothing, merges nothing.

    The differential baseline: the same run minus every analysis call
    and the cost of lowering them.
    """

    name = "null"

    def setup(self, sp) -> None:
        sp.SP_Init()

    def instrument_trace(self, trace, vm) -> None:
        pass


@dataclass(frozen=True)
class Reference:
    """What the direct interpreter says the program does."""

    instructions: int
    exit_code: int
    stdout: str


#: Programs generated per benchmark seed.  One seed of a small suite
#: program (mcf has four functions) can run 30% faster or slower than
#: another, so a run cycles over a panel of programs and its medians
#: describe the program family rather than one draw.
PANEL_SIZE = 12


def default_seed(workload: Workload) -> int:
    """The suite spec's own generator seed (continuous with ROADMAP)."""
    return SPEC2000[workload.program].seed


def panel(seed: int) -> list[int]:
    """Generator seeds of the programs a benchmark seed stands for: the
    seed itself first, then draws from a generator seeded with it."""
    rng = random.Random(seed)
    return [seed] + [rng.randrange(2 ** 31) for _ in range(PANEL_SIZE - 1)]


def generate(workload: Workload, seed: int) -> Program:
    spec = dataclasses.replace(SPEC2000[workload.program], seed=seed)
    return build_workload(spec).program


def reference(workload: Workload, seed: int) -> Reference:
    kernel = Kernel(seed=seed)
    process = load_program(generate(workload, seed), kernel)
    result = run_to_completion(process)
    return Reference(result.instructions, process.exit_code,
                     kernel.stdout_text())


def setup(workload: Workload, seed: int,
          tool_type: type[Pintool] | None = None
          ) -> tuple[Program, Pintool, Kernel]:
    """Fresh inputs for one operation."""
    return (generate(workload, seed), (tool_type or workload.tool)(),
            Kernel(seed=seed))


def config(workload: Workload, metrics: bool = False) -> SuperPinConfig:
    # Every axis is explicit so SUPERPIN_* environment defaults cannot
    # change what is measured.
    return SuperPinConfig(spworkers=workload.spworkers, spfaults="failfast",
                          jit_backend="closure", sptc2=16,
                          sptracestore=None, spmetrics=metrics)


def check(report: SuperPinReport, tool: Pintool, ref: Reference
          ) -> list[str]:
    """Every way this operation disagrees with the reference."""
    problems = []
    if report.degraded_slices:
        problems.append(f"degraded slices {report.degraded_slices}")
    if not report.all_exact:
        problems.append("a slice is not exact")
    if report.exit_code != ref.exit_code:
        problems.append(f"exit code {report.exit_code} != {ref.exit_code}")
    if report.stdout != ref.stdout:
        problems.append("stdout differs")
    if report.total_slice_instructions != ref.instructions:
        problems.append(f"slices retired {report.total_slice_instructions}"
                        f" != {ref.instructions} instructions")
    if isinstance(tool, ICount2) and tool.total != ref.instructions:
        problems.append(f"merged icount {tool.total} != "
                        f"{ref.instructions}")
    return problems


def fingerprint(report: SuperPinReport) -> tuple:
    """Figures that must repeat exactly from operation to operation:
    slice count, guest instructions, virtual total cycles and TC2
    promotions."""
    return (report.num_slices, report.total_slice_instructions,
            report.timing.total_cycles,
            sum(s.tc2_promotions for s in report.slices))
