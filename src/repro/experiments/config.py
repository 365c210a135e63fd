"""Experiment configuration.

The paper averaged 50 random topologies per configuration on a compute
cluster-class budget; the :class:`SimStudyConfig` defaults are
laptop-sized, and every field can be raised back toward the paper's
campaign.  (The benchmark suite reads its grid from ``REPRO_*``
variables; see ``benchmarks/conftest.py``.)

``REPRO_WORKERS`` (default 1), the number of parallel campaign worker
processes, is read by :func:`workers_from_environment` and is
deliberately *not* part of :class:`SimStudyConfig`: how many processes
execute a campaign is an execution detail, not part of the
experiment's identity, so it never enters the campaign-directory
fingerprint and cannot change results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..dessim.units import seconds
from ..mac.config import MacParameters
from ..mac.policy import POLICIES
from ..phy.frames import PhyParameters
from ..phy.reception import PhyConfig

__all__ = [
    "SimStudyConfig",
    "normalize_scheme",
    "workers_from_environment",
]

#: Scheme names in the paper's presentation order.
SCHEMES = ("ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS")


def normalize_scheme(name: str) -> str:
    """Canonicalize a scheme name (``"drts_octs"`` → ``"DRTS-OCTS"``).

    CLI surfaces accept lowercase/underscore spellings; everything
    internal uses the paper's hyphenated uppercase names (the
    :data:`~repro.mac.policy.POLICIES` keys).
    """
    canonical = name.strip().upper().replace("_", "-")
    if canonical not in POLICIES:
        raise ValueError(
            f"unknown scheme {name!r}; expected one of {sorted(POLICIES)} "
            "(case/underscore-insensitive)"
        )
    return canonical


@dataclass(frozen=True)
class SimStudyConfig:
    """One Fig. 6/7-style simulation sweep."""

    n_values: tuple[int, ...] = (3, 5, 8)
    beamwidths_deg: tuple[float, ...] = (30.0, 90.0, 150.0)
    schemes: tuple[str, ...] = SCHEMES
    topologies: int = 3
    sim_time_ns: int = seconds(2)
    base_seed: int = 2003  # ICDCS 2003
    retry_limit: int = 7
    capture_threshold: float | None = None

    def __post_init__(self) -> None:
        if not self.n_values:
            raise ValueError("need at least one N value")
        if any(n < 2 for n in self.n_values):
            raise ValueError(f"N values must be >= 2, got {self.n_values}")
        unknown = [s for s in self.schemes if s not in POLICIES]
        if unknown:
            raise ValueError(
                f"unknown schemes {unknown}; expected names from "
                f"{sorted(POLICIES)} (normalize_scheme canonicalizes spellings)"
            )
        if not self.beamwidths_deg:
            raise ValueError("need at least one beamwidth")
        if any(not 0 < b <= 360 for b in self.beamwidths_deg):
            raise ValueError(
                f"beamwidths must be in (0, 360] degrees, got {self.beamwidths_deg}"
            )
        if self.topologies < 1:
            raise ValueError(f"topologies must be >= 1, got {self.topologies}")
        if self.sim_time_ns <= 0:
            raise ValueError(f"sim time must be positive, got {self.sim_time_ns}")

    @property
    def mac_params(self) -> MacParameters:
        return MacParameters(retry_limit=self.retry_limit)

    @property
    def phy_params(self) -> PhyParameters:
        return PhyParameters(capture_threshold=self.capture_threshold)

    @property
    def phy_config(self) -> PhyConfig | None:
        """The reception model :func:`~repro.experiments.campaign.
        run_cell_spec` builds networks with (``None``: the unit disk)."""
        return None


def workers_from_environment() -> int:
    """Campaign worker-process count from ``REPRO_WORKERS`` (default 1)."""
    workers = int(os.environ.get("REPRO_WORKERS", "1"))
    if workers < 1:
        raise ValueError(f"REPRO_WORKERS must be >= 1, got {workers}")
    return workers
