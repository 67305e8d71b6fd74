"""Small statistics helpers shared by the benchmark and its tests."""

from __future__ import annotations

import math
import re

# Percentiles tried for a tail figure, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Samples a tail percentile must leave beyond it to be reported.
TAIL_MIN_BEYOND = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _rank(p: float, n: int) -> int:
    # Rounded first so that, say, 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def nearest_rank(sorted_values, p: float) -> float:
    """The p-th percentile of ascending ``sorted_values`` by nearest rank."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def tail_percentile(values) -> tuple[float, float] | None:
    """(p, value) for the highest percentile in ``TAIL_LADDER`` that leaves at
    least ``TAIL_MIN_BEYOND`` samples above its rank, or None when there are
    too few samples for any of them."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        k = _rank(p, n)
        if n - k >= TAIL_MIN_BEYOND:
            return p, ordered[k - 1]
    return None


def failed_share(failed: int, attempted: int) -> float:
    """Share of checked output points that failed."""
    if attempted < 1:
        raise ValueError("no points were checked")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def valid_metric_name(name: str) -> bool:
    """Metric names start with a letter or digit and use only [A-Za-z0-9_.-],
    at most 64 characters."""
    return METRIC_NAME.fullmatch(name) is not None
