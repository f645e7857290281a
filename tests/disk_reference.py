"""The whole-row unit-disk sampler: an independent reference for
lctkit.estimator._unit_disk, which draws the same rejection square in
blocks into one reused buffer.

Each attempt draws 2 (need + need // 3 + 16) doubles at once, maps them to
the square [-1, 1]^2 as complex numbers and keeps the first `need` that lie
on the closed unit disk; the temporaries are several times the row.
"""

import numpy as np


def unit_disk(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill `out` with complex points uniform on the closed unit disk, by
    rejection from the square (acceptance pi/4)."""
    filled = 0
    while filled < len(out):
        need = len(out) - filled
        square = rng.random(size=2 * (need + need // 3 + 16))
        square *= 2
        square -= 1
        square = square.view(np.complex128)
        kept = np.compress(np.abs(square) <= 1, square)[:need]
        out[filled : filled + len(kept)] = kept
        filled += len(kept)
