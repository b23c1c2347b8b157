"""Machine-speed probe used to normalise CPU times.

On a virtual machine whose cores are shared with other work, the same
request can take 30-80 % more CPU time for minutes at a stretch.  A run
therefore interleaves a fixed probe with its requests, independent of the
library: exact Gauss-Jordan elimination on a fixed rational matrix, the same
kind of work (``Fraction`` arithmetic in Python-level row loops) that
dominates the engine.  Times are scaled by
``(REFERENCE_NS / probe_ns) ** EXPONENT``, where ``probe_ns`` is the median
probe of the pass, so they read as on a machine where the probe takes
``REFERENCE_NS``.

``EXPONENT`` is below one because the engine slows down less than the probe
when the machine is busy.  On a shared 2-vCPU virtual machine (Python 3.11),
eight identical 10 s ``cone-prices`` passes whose median probe ranged from
1.9 to 3.2 ms gave a log-log slope of 0.58 between throughput and probe
time; scaling with exponent 0.5 cut the coefficient of variation of
throughput from 10.5 % to 4.6 %, while exponent 1 over-corrected (7.9 %).
Over ten-seed sets of all four workloads, exponents 0.5 and 0.6 gave the
lowest spreads of throughput, p50 and p90 (exponent 0 left them at 9-30 %).
Raw CPU times are reported alongside the scaled ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Probe CPU time on the reference machine (one probe = best of two kernels).
REFERENCE_NS = 1_700_000
EXPONENT = 0.5

_MATRIX = tuple(
    tuple(Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i + j) % 3) for j in range(9)) for i in range(8)
)


def kernel() -> Fraction:
    """Gauss-Jordan elimination of the fixed 8x9 matrix; returns one entry."""
    rows = [list(r) for r in _MATRIX]
    n = len(rows)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [v / head for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                k = rows[r][col]
                rows[r] = [a - k * b for a, b in zip(rows[r], rows[col])]
    return rows[0][-1]


def probe() -> int:
    """CPU time of the kernel, best of two runs (an interrupt only adds)."""
    best = None
    for _ in range(2):
        start = time.process_time_ns()
        kernel()
        spent = time.process_time_ns() - start
        best = spent if best is None else min(best, spent)
    return best


def scaled(value: float, probe_ns: float) -> float:
    """A time measured while the probe took ``probe_ns``, at reference speed."""
    return value * (REFERENCE_NS / probe_ns) ** EXPONENT
