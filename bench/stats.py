"""The tail percentile the benchmark reports."""

from __future__ import annotations

import math

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the "tail" is a handful of samples.
MIN_BEYOND = 10


def percentile(samples, q: float):
    """Nearest-rank q-th percentile (0 < q < 100) of ``samples``, or None
    when fewer than MIN_BEYOND samples lie above it.

    The nearest rank is ceil(q/100 * n); the samples beyond it number
    n - rank.
    """
    values = sorted(samples)
    n = len(values)
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return values[rank - 1]
