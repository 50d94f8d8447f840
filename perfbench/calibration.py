"""Machine-speed calibration for the end-to-end times.

On a shared cloud machine other tenants' load moves the speed of a core
by +-20% over seconds to minutes, and with it every time a run measures.  A fixed kernel owned by the benchmark -- never the
program's code, so a change to the program cannot move it -- is timed
before every set-up and every timed pass.  The run's end-to-end times are
rescaled by ``REFERENCE_S / median(kernel times of the run)``: they are
seconds of a machine on which the kernel takes ``REFERENCE_S``.  The raw
wall times and the kernel's median are reported alongside
(``pass_wall_ms.*``, ``calibration_ms``).

The kernel mixes the two kinds of work on the private-conv path: numpy
``uint64`` modular butterflies over 4096-coefficient rows and a Python
big-integer loop.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time on the reference machine (2.1 GHz Xeon, one core).
REFERENCE_S = 0.0125

_Q = np.uint64(1073479681)
_TWIDDLE = np.uint64(12345)
_ROWS = (
    np.arange(4 * 4096, dtype=np.uint64) * np.uint64(2654435761) % _Q
).reshape(4, 4096)
_BIG = (1 << 61) - 1


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    for _ in range(3):
        rows = _ROWS
        for stage in range(12):
            pairs = rows.reshape(4, -1, 2, 1 << stage)
            u = pairs[:, :, 0, :]
            t = pairs[:, :, 1, :] * _TWIDDLE % _Q
            rows = np.concatenate(((u + t) % _Q, (u + _Q - t) % _Q), axis=2)
            rows = rows.reshape(4, 4096)
    acc = 0
    for v in range(20000):
        acc = (acc * 0x9E3779B97F4A7C15 + v) % _BIG
    return time.perf_counter() - start


def scale(kernel_times) -> float:
    """Factor from this run's wall seconds to reference seconds."""
    return REFERENCE_S / statistics.median(kernel_times)
