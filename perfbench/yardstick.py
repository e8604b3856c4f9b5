"""A fixed piece of pure-Python work that says how fast the machine is now.

On a shared host the same code runs up to 2x slower for seconds to minutes
at a time, whatever it is: the slowdown comes from other tenants, not from
the code. Timing this yardstick right before each set-up and each pass, in
the same process, and scaling that set-up's or pass's times by
``NOMINAL_S / yardstick time`` reports them in the seconds of a quiet
machine. The yardstick is the benchmark's own code and never changes with
the engine, so a change to the engine still shows in full.
"""

from __future__ import annotations

import random
import time

# The yardstick's fastest time on a quiet moment of the machine the bounds
# were set on (2-core Xeon VM, Python 3.11): the unit the times are scaled to.
NOMINAL_S = 0.004


def _cells(n: int = 20_000) -> list:
    rng = random.Random(0)
    out: list = []
    for _ in range(n):
        r = rng.random()
        if r < 0.08:
            out.append(None)
        elif r < 0.14:
            out.append(rng.choice(("abc", "n/a", "tbd")))
        elif r < 0.20:
            out.append(rng.random() < 0.5)
        else:
            out.append(round(rng.uniform(0, 10), 3))
    return out


def _work(cells: list) -> float:
    """Type dispatch, comparison and tuple building per cell, the way the
    evaluator spends its time."""
    out = []
    for v in cells:
        if v is None:
            out.append(0.0)
        elif isinstance(v, bool):
            out.append(1.0 if v else 0.0)
        elif isinstance(v, float):
            out.append((v, v * 2.0) if v > 5.0 else v)
        else:
            out.append(len(v))
    total = 0.0
    for x in tuple(out):
        if isinstance(x, tuple):
            total += x[1]
        elif isinstance(x, float):
            total += x
    return total


class Yardstick:
    def __init__(self):
        self.cells = _cells()
        self.tries: list[float] = []

    def scale(self, n: int = 2) -> float:
        """Time the yardstick *n* times now and return the factor from this
        moment's seconds to quiet-machine seconds."""
        for _ in range(n):
            t0 = time.perf_counter()
            _work(self.cells)
            self.tries.append(time.perf_counter() - t0)
        return NOMINAL_S / min(self.tries[-n:])
