"""The speed of the machine while the benchmark runs.

A shared host slows every process on it by up to 2x, in spells that
last from milliseconds to minutes, and the workloads' own times follow.
So the benchmark times a fixed piece of the benchmark's own Python work
(``piece``: dict updates, integer and ``Fraction`` arithmetic and a sort
over a few MB of boxed integers, 3-7 ms) many times between its
repetitions, and reports workload times scaled by how fast that piece
ran.  The piece does not use the package, so the scaling follows the
host's speed and never a change to the package.

``REFERENCE_S`` is the piece's median time on the machine the recorded
results come from (2-vCPU VM, Python 3.11.7), so scaled times read as
seconds on that machine.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0050
TABLE_SIZE = 1 << 17


def _table() -> list:
    rng = random.Random("perfbench/speed")
    return [rng.randrange(1 << 20, 1 << 30) for _ in range(TABLE_SIZE)]


_TABLE = _table()


def piece() -> float:
    """Run the fixed piece of work once; its wall time in seconds."""
    table = _TABLE
    t0 = perf_counter()
    counts = {}
    acc = Fraction(0)
    j = 12345
    for i in range(5000):
        j = (j * 1103515245 + 12345) & 0x7FFFFFFF
        v = table[j & (TABLE_SIZE - 1)]
        counts[v & 1023] = counts.get(v & 1023, 0) + i
        if i & 7 == 0:
            acc += Fraction(v & 255, (i & 63) + 1)
    sorted(counts.items())
    return perf_counter() - t0


def sample(seconds: float) -> list:
    """Time ``piece`` repeatedly for about ``seconds``."""
    out = []
    end = perf_counter() + seconds
    while perf_counter() < end:
        out.append(piece())
    return out
