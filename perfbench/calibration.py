"""Reference loops that measure how fast this machine runs right now.

On a shared host the same Python code runs up to 40% slower for stretches
of seconds. Each worker runs a fixed reference loop about every CAL_EVERY
seconds, next to the calls it times, and every call's time is scaled to the
speed at which the loop takes its nominal time:

    normalised = seconds * NOMINAL[kind] / (mean of the loops around the call)

A change to lctkit moves the calls and not the loops, so it shows in the
normalised times in full. `exact` is a sparse polynomial product over
Fractions, the kind of work lctkit's exact layers do. `numpy` is a sort of
absolute values, the kind of work the estimator does.
"""

from __future__ import annotations

import time
from fractions import Fraction

CAL_EVERY = 0.25

# Seconds each loop takes at the reference speed: about its typical time on
# a shared 2-core virtual machine with Python 3.11.
NOMINAL = {"exact": 5.0e-3, "numpy": 4.5e-3}

_FACTOR = {
    (i, j, k): Fraction(i + 2 * j - k, 1 + (i + j + k) % 3)
    for i in range(4) for j in range(4) for k in range(3) if i + j + k < 6
}


def _exact() -> None:
    out: dict = {}
    for e1, c1 in _FACTOR.items():
        for e2, c2 in _FACTOR.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            cur = out.get(e)
            value = c1 * c2 if cur is None else cur + c1 * c2
            if value:
                out[e] = value
            elif cur is not None:
                del out[e]


def _numpy() -> None:
    import numpy as np

    x = np.random.default_rng(0).random(200_000)
    np.sort(np.abs(x * x - 0.5))


LOOPS = {"exact": _exact, "numpy": _numpy}


def kind_of(family: str) -> str:
    return "numpy" if family == "estimate" else "exact"


_warm: set = set()


def measure(kind: str) -> float:
    """Seconds one loop takes; the first call also runs it once untimed, so
    one-time costs stay out, and only the loops a worker uses touch its
    memory."""
    if kind not in _warm:
        LOOPS[kind]()
        _warm.add(kind)
    start = time.perf_counter()
    LOOPS[kind]()
    return time.perf_counter() - start
