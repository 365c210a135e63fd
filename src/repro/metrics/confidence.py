"""Confidence intervals for replicate summaries.

The paper plots the mean and min-max range over 50 topologies; for a
production-quality harness we add Student-t confidence intervals on the
mean, so users running fewer replicates can see whether a scheme
comparison is resolved or still noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["ConfidenceInterval", "mean_confidence_interval"]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided CI on a mean."""

    mean: float
    lower: float
    upper: float
    level: float
    count: int

    def __post_init__(self) -> None:
        if not self.lower <= self.mean <= self.upper:
            raise ValueError(
                f"mean {self.mean} outside [{self.lower}, {self.upper}]"
            )
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level}")

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """Whether two CIs overlap (an unresolved comparison)."""
        return self.lower <= other.upper and other.lower <= self.upper


def mean_confidence_interval(
    samples: Sequence[float], level: float = 0.95
) -> ConfidenceInterval:
    """Student-t CI on the mean of i.i.d. replicates.

    With a single sample the interval is degenerate (zero width) —
    callers should treat ``count == 1`` as "no uncertainty estimate".
    """
    values = list(samples)
    if not values:
        raise ValueError("cannot build a CI from zero samples")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return ConfidenceInterval(
            mean=mean, lower=mean, upper=mean, level=level, count=1
        )
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    std_error = math.sqrt(variance / n)
    # Imported here: scipy.stats is the slowest import in the package,
    # and nothing on the simulation or campaign path builds an interval.
    from scipy import stats

    t_crit = float(stats.t.ppf(0.5 + level / 2.0, df=n - 1))
    half = t_crit * std_error
    # Clamp the bounds to the mean: with near-identical samples the
    # half-width underflows, and float rounding in ``mean ± half`` must
    # not land an endpoint on the wrong side of the mean — that would
    # violate ConfidenceInterval's lower <= mean <= upper invariant.
    return ConfidenceInterval(
        mean=mean,
        lower=min(mean, mean - half),
        upper=max(mean, mean + half),
        level=level,
        count=n,
    )
