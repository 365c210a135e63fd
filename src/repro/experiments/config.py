"""Experiment configuration, overridable from the environment.

The paper averaged 50 random topologies per configuration on a compute
cluster-class budget; the default here is laptop-sized.  Environment
variables scale everything back up:

======================== ======================================= =======
variable                 meaning                                 default
======================== ======================================= =======
``REPRO_TOPOLOGIES``     random topologies per configuration     3
``REPRO_SIM_SECONDS``    simulated seconds per run               2.0
``REPRO_N_VALUES``       comma-separated N list                  3,5,8
``REPRO_BEAMWIDTHS_DEG`` comma-separated beamwidth list          30,90,150
``REPRO_RETRY_LIMIT``    802.11 retry limit                      7
``REPRO_CAPTURE``        SNR capture threshold ("none" disables) none
``REPRO_WORKERS``        parallel campaign worker processes      1
======================== ======================================= =======

``REPRO_WORKERS`` is deliberately *not* part of
:class:`SimStudyConfig`: how many processes execute a campaign is an
execution detail, not part of the experiment's identity, so it never
enters the campaign-directory fingerprint and cannot change results.
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
    "from_environment",
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

    @property
    def replicate_class(self) -> type:
        """The replicate record :func:`~repro.experiments.campaign.
        run_cell_spec` emits for this config."""
        from .campaign import ReplicateMetrics  # deferred: campaign imports us

        return ReplicateMetrics


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    return default if raw is None else int(raw)


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    return default if raw is None else float(raw)


def _env_tuple(name: str, default: tuple, cast) -> tuple:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return tuple(cast(part.strip()) for part in raw.split(",") if part.strip())


def from_environment() -> SimStudyConfig:
    """Build the study configuration, honouring ``REPRO_*`` overrides."""
    capture_raw = os.environ.get("REPRO_CAPTURE", "none").strip().lower()
    capture = None if capture_raw in ("", "none", "off") else float(capture_raw)
    return SimStudyConfig(
        n_values=_env_tuple("REPRO_N_VALUES", (3, 5, 8), int),
        beamwidths_deg=_env_tuple("REPRO_BEAMWIDTHS_DEG", (30.0, 90.0, 150.0), float),
        topologies=_env_int("REPRO_TOPOLOGIES", 3),
        sim_time_ns=seconds(_env_float("REPRO_SIM_SECONDS", 2.0)),
        retry_limit=_env_int("REPRO_RETRY_LIMIT", 7),
        capture_threshold=capture,
    )


def workers_from_environment() -> int:
    """Campaign worker-process count from ``REPRO_WORKERS`` (default 1)."""
    workers = _env_int("REPRO_WORKERS", 1)
    if workers < 1:
        raise ValueError(f"REPRO_WORKERS must be >= 1, got {workers}")
    return workers
