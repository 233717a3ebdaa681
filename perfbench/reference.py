"""A fixed pure-Python kernel that gauges how fast the machine runs right now.

The host this benchmark runs on is shared, and its speed drifts by tens of
percent within seconds.  ``Stopwatch`` runs this kernel right before and
right after the block it times, and once every INTERVAL_S inside it, and
rescales the block's wall time to the speed at which one kernel run takes
REFERENCE_S.  The kernel does the kind of work supercalc does (small objects,
dict lookups, bit tests and complex arithmetic in the interpreter) but calls
nothing in supercalc, so a change to supercalc cannot move it.
"""

from __future__ import annotations

import random
import signal
from time import perf_counter

# Roughly one kernel run on an unloaded 2-vCPU Xeon host.
REFERENCE_S = 1e-3
# Kernel time taken on each side of a timed block, and the period of the
# samples taken inside it.
EDGE_S = 0.002
INTERVAL_S = 0.1
_REPEATS = 4


class _Element:
    """Validated sparse map {mask: complex}, built the way supercalc builds one."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        clean = {}
        for mask, c in terms.items():
            c = complex(c)
            if c != 0:
                clean[int(mask)] = c
        self.terms = clean


def _product(a: _Element, b: _Element) -> _Element:
    acc: dict = {}
    for mj, cj in a.terms.items():
        for mk, ck in b.terms.items():
            if mj & mk:
                continue
            m = mj | mk
            sign = -1 if (mj >> 1 & mk).bit_count() & 1 else 1
            acc[m] = acc.get(m, 0j) + sign * cj * ck
    return _Element(acc)


def _operand(rng: random.Random, size: int) -> _Element:
    return _Element({m: complex(rng.random(), rng.random())
                     for m in rng.sample(range(256), size)})


_RNG = random.Random(0)
_SMALL = [_operand(_RNG, 4) for _ in range(8)]
_LARGE = [_operand(_RNG, 24) for _ in range(2)]


def kernel() -> None:
    """Small and mid-sized sparse anticommuting products, repeated."""
    for _ in range(_REPEATS):
        for a in _SMALL:
            for b in _SMALL:
                _product(a, b)
        _product(*_LARGE)


def sample(min_seconds: float) -> float:
    """Mean seconds per kernel run over at least one run and ``min_seconds``."""
    runs = 0
    start = perf_counter()
    while True:
        kernel()
        runs += 1
        elapsed = perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / runs


class Stopwatch:
    """Times a block; ``wall_s`` excludes the kernel runs made inside it.

    The samples inside the block come from a SIGALRM handler, so this works
    in the main thread only.
    """

    def __enter__(self) -> "Stopwatch":
        self._samples = [sample(EDGE_S)]
        self._busy = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        elapsed = perf_counter() - start
        self._samples.append(elapsed)
        self._busy += elapsed

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = perf_counter() - self._start - self._busy
        signal.signal(signal.SIGALRM, self._previous)
        self._samples.append(sample(EDGE_S))
        self.reference_s = sum(self._samples) / len(self._samples)
        return False

    @property
    def seconds(self) -> float:
        """Wall time at reference speed."""
        return at_reference_speed(self.wall_s, self.reference_s)


def at_reference_speed(wall_s: float, reference_s: float) -> float:
    return wall_s * REFERENCE_S / reference_s
