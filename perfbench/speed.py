"""Host-speed reference kernel for timing on a shared machine.

Neighbours on a shared host slow this process by up to 3x in stretches that
last from milliseconds to minutes, with no CPU steal reported.  A fixed
kernel with the program's mix of work (a 36x36 dense solve, a Python float
loop, JSON text, small matrix products) is timed between requests, and a
pass's wall times are scaled by ``REFERENCE_S / median kernel time`` over
the samples taken through that pass.  The result reads as the time a
request would take on a host where the kernel takes ``REFERENCE_S``.  The
kernel and ``REFERENCE_S`` are fixed: changing either rescales every timing
the benchmark reports.
"""

import json
import time

import numpy as np

# Kernel time that leaves a timing unscaled: about its median (three
# back-to-back runs per sample) on a shared 2-core 2.1 GHz Xeon VM with BLAS
# on one thread.
REFERENCE_S = 0.4e-3

_A = np.random.default_rng(0).standard_normal((6, 6)) - 4.0 * np.eye(6)
_K = np.kron(np.eye(6), _A) + np.kron(_A, np.eye(6))
_D = np.eye(6).reshape(-1)


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(6):
        x = np.linalg.solve(_K, _D)
        s = 0.0
        for v in x.tolist():
            s += v * v / (1.0 + abs(v))
        json.dumps({"v": x[:12].tolist(), "s": s})
        m = _A @ _A + _A.T
        float(np.trace(m)) + float(np.linalg.det(m[:4, :4]))
    return time.perf_counter() - t0


def samples(n: int = 3) -> list:
    """``n`` back-to-back kernel times."""
    return [kernel_seconds() for _ in range(n)]
