"""Order statistics shared by the benchmark runner and ``--compare``."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: A tail percentile is only trusted with at least this many samples
#: strictly beyond it (otherwise one outlier decides it).
MIN_SAMPLES_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """One nearest-rank percentile with the sample count behind it.

    Attributes:
        q: The requested percentile, 0 < q <= 100.
        value: The sample at nearest rank ``ceil(q/100 * n)``.
        samples: How many samples the percentile was taken over.
        beyond: Samples ranked strictly above the chosen one.
    """

    q: float
    value: float
    samples: int
    beyond: int

    @property
    def trusted(self) -> bool:
        """At least :data:`MIN_SAMPLES_BEYOND` samples lie beyond it."""
        return self.beyond >= MIN_SAMPLES_BEYOND

    def describe(self) -> str:
        """``p99=12.3 (n=2000, 20 beyond)`` with an untrusted marker."""
        mark = "" if self.trusted else \
            f", fewer than {MIN_SAMPLES_BEYOND} beyond"
        return (f"p{self.q:g}={self.value:.4g} "
                f"(n={self.samples}, {self.beyond} beyond{mark})")


def nearest_rank(values: Sequence[float], q: float) -> Percentile:
    """The nearest-rank ``q``-th percentile of ``values``.

    The rank is ``ceil(q/100 * n)`` (1-based), so the result is always an
    observed sample, never an interpolation.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q!r}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return Percentile(q=q, value=ordered[rank - 1], samples=len(ordered),
                      beyond=len(ordered) - rank)


def median(values: Sequence[float]) -> float:
    """The median (mean of the middle pair for even counts)."""
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them.

    A single value is its own quartiles.
    """
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf
