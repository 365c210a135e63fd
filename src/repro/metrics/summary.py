"""Aggregation across topology replicates.

Figures 6 and 7 of the paper plot, for each configuration, the mean
over 50 random topologies together with a vertical bar showing the
min-max range.  :class:`ReplicateSummary` carries exactly those three
numbers (plus the sample count and standard deviation for good
measure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["ReplicateSummary", "summarize"]


@dataclass(frozen=True)
class ReplicateSummary:
    """Mean and range of one metric across topology replicates."""

    mean: float
    minimum: float
    maximum: float
    std: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not self.minimum <= self.mean <= self.maximum:
            raise ValueError(
                f"mean {self.mean} outside [{self.minimum}, {self.maximum}]"
            )


def summarize(samples: Sequence[float]) -> ReplicateSummary:
    """Summarize one metric over replicates (paper-style mean + range)."""
    values = list(samples)
    if not values:
        raise ValueError("cannot summarize zero samples")
    minimum, maximum = min(values), max(values)
    # The float sum can round the mean of equal samples just outside
    # their range (sum([0.9] * 7) / 7 > 0.9); clamp it back in.
    mean = min(max(sum(values) / len(values), minimum), maximum)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return ReplicateSummary(
        mean=mean,
        minimum=minimum,
        maximum=maximum,
        std=math.sqrt(variance),
        count=len(values),
    )
