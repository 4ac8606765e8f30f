"""Time a fixed reference kernel, to measure how fast the machine is right now.

Usage: python3 perfbench/calibrate.py

Prints the kernel's time in seconds.  The kernel mixes what greenmorse spends
its time on (small NumPy operations driven from Python, and LU factorisations
and solves of a 256 x 256 system) but never imports greenmorse, so no change to
the program can change it.  On a shared 2-core machine the speed of both this
kernel and a CLI command drifted by up to 30 % between half-minute windows,
while their ratio held within about 5 %; perfbench/run.py divides by it.
"""

import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

ROUNDS = 120


def kernel() -> float:
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((256, 256)) + 16.0 * np.eye(256)
    rhs = rng.standard_normal((256, 6))
    points = rng.standard_normal((1024, 2))
    start = time.perf_counter()
    for _ in range(ROUNDS):
        lu_solve(lu_factor(matrix), rhs)
        for p in points[:40]:
            d2 = np.sum((points - p) ** 2, axis=1)
            int(np.argmin(d2))
            float(np.hypot(*p))
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(kernel()))
