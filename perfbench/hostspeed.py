"""Scale measured host seconds to a reference host speed.

The benchmark shares its machine with other work, and a core's speed
drifts with that work: on a 2-core Xeon VM the same mcf operation took
0.81 s to 1.30 s depending on the 40 s window it ran in.  A fixed
pure-Python probe, timed while the interval runs, slows down with the
core; dividing by it cut the spread of one gcc operation's repeated
times from 15% to 4% of their median (distance between quartiles).

The probe shares no code with the program under test (closure dispatch
over a register list, as the closure JIT backend runs, and integer
hashing into a dict), so a change to the program cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Median probe seconds on the reference host (the 2-core Xeon VM
#: above).  A scaled time is what the interval would have taken at that
#: speed.
REFERENCE_S = 0.006


def _make_vm():
    regs = [0] * 8
    mem: dict[int, int] = {}

    def add(a, b, c):
        def step():
            regs[a] = (regs[b] + regs[c]) & 0xFFFFFFFF
        return step

    def addi(a, b, imm):
        def step():
            regs[a] = (regs[b] + imm) & 0xFFFFFFFF
        return step

    def store(a, b):
        def step():
            mem[regs[b] & 1023] = regs[a]
        return step

    def load(a, b):
        def step():
            regs[a] = mem.get(regs[b] & 1023, 0)
        return step

    body = [addi(1, 1, 3), add(2, 2, 1), store(2, 1), load(3, 1),
            add(4, 3, 2), addi(5, 4, 7), store(5, 4), load(6, 5)]

    def run(trips: int) -> None:
        for _ in range(trips):
            for step in body:
                step()

    return run


_VM = _make_vm()


def probe() -> float:
    """Host seconds one fixed unit of interpreter work takes right now."""
    started = time.perf_counter()
    _VM(2000)
    table: dict[int, int] = {}
    x = 0
    for i in range(15000):
        x = (x * 31 + i) & 0xFFFFF
        table[x & 4095] = i
    return time.perf_counter() - started


class Window:
    """Probes around and inside a measured interval.

    The core's speed changes within a fraction of a second (probe times
    taken 43 ms apart correlate at 0.84, 0.2 s apart at 0.37), so a
    probe at each end of a several-second interval says little about
    the interval itself.  With ``tick`` set, a ``SIGALRM`` handler
    also takes a probe every ``TICK_S`` seconds in the main thread while
    the window is open, and ``clock()`` leaves the time those probes
    took out.  Leave ``tick`` off when the measured work runs in other
    processes: a probe in this one would then compete with them for the
    cores, and its time would not have delayed the work.

    After the block, ``clock()`` seconds measured inside the window
    times ``factor`` are seconds at the reference speed.  A window
    never entered takes no probes and has a factor of 1.
    """

    #: Probes taken at each end.
    EDGE = 4
    TICK_S = 0.1

    factor = 1.0

    def __init__(self, tick: bool = True):
        self.tick = tick
        self.samples: list[float] = []
        self.stolen = 0.0

    def clock(self) -> float:
        """Host seconds, less those spent in probes inside the window."""
        return time.perf_counter() - self.stolen

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self.samples.append(probe())
        self.stolen += time.perf_counter() - started

    def __enter__(self) -> "Window":
        self.samples += [probe() for _ in range(self.EDGE)]
        if self.tick:
            self._handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.tick:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self.samples += [probe() for _ in range(self.EDGE)]
        self.factor = REFERENCE_S / statistics.fmean(self.samples)
