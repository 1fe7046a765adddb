"""Paths and small helpers shared by the benchmark scripts.

The benchmark always runs the ``rbcount`` sources of the checkout it sits in
(``<root>/src``), never an installed copy, and keeps every file it writes
under ``<root>/.bench_work``.
"""

from __future__ import annotations

import gc
import math
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFS = HERE / "refs"


class MissingSources(RuntimeError):
    """The checkout holds no ``src/rbcount`` package to benchmark."""


def use_checkout_sources() -> None:
    """Put ``<root>/src`` first on sys.path and check that rbcount loads from it."""
    if not (SRC / "rbcount" / "__init__.py").is_file():
        raise MissingSources(f"no rbcount sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rbcount

    loaded = Path(rbcount.__file__).resolve()
    if SRC not in loaded.parents:
        raise MissingSources(f"rbcount was imported from {loaded}, not from {SRC}")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# Nominal time of one reference loop; calibrated times are scaled to a host
# that runs the loop in this time.
REFERENCE_S = 0.006
_MASK64 = (1 << 64) - 1
_TABLE = list(range(512))


def _reference_loop(n: int = 12_000) -> int:
    """Fixed pure-Python work (integer mixing, list and dict access) that does
    not touch rbcount, so its time tracks how fast this host runs Python."""
    table = dict.fromkeys(range(4096), 0)
    acc = 0
    for i in range(n):
        h = (i * 0x9E3779B97F4A7C15) & _MASK64
        acc ^= h >> 7
        table[h & 4095] = _TABLE[i & 511] + acc.bit_count()
        if table[i & 4095] & 1:
            acc += 1
    return acc


class HostSpeed:
    """Samples how fast this host runs Python while a workload runs.

    Inside ``with HostSpeed() as speed:`` a SIGALRM timer runs the reference
    loop every PERIOD_S seconds and records its time over REFERENCE_S (the
    host's slowdown).  ``clock`` is ``time.perf_counter`` minus the time spent
    sampling, so the workload's own timings leave the samples out.
    """

    PERIOD_S = 0.5

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self, *_signal_args) -> None:
        started = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # so that the program's heap does not enter into it
        try:
            _reference_loop()
        finally:
            if enabled:
                gc.enable()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed / REFERENCE_S)
        self.spent += elapsed

    def slowdown_since(self, first: int) -> float:
        """Median slowdown over the samples taken since index ``first``."""
        if len(self.samples) == first:
            self.sample()
        return median(self.samples[first:])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
