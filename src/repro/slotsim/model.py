"""Configuration of the slot-level model simulator.

:mod:`repro.slotsim` simulates the *analytical model's world* — not
IEEE 802.11.  Nodes live on a torus (periodic plane, so every node sees
the same infinite-Poisson-like environment and there are no boundary
effects), time advances in slots, and every waiting node independently
starts a four-way handshake with probability ``p`` per slot, exactly as
Section 2 assumes.  What the closed forms idealize away — the node set
is a *fixed integer draw*, a node's interference is *persistent across
slots*, failures are detected at *protocol checkpoints* rather than
geometrically distributed — is simulated faithfully here, so the gap
between this simulator and the formulas measures the model's
independence assumptions (the discrepancy source the paper's Section 4
itself discusses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.params import ProtocolParameters
from ..mac.policy import AntennaPolicy, POLICIES

__all__ = ["SlotModelConfig"]


@dataclass(frozen=True)
class SlotModelConfig:
    """Inputs of one slot-model run.

    Attributes:
        params: packet lengths, density ``N`` and beamwidth.
        scheme: which antenna policy the handshake frames use (any key
            of :data:`repro.mac.policy.POLICIES`).
        p: per-slot handshake-initiation probability of a waiting node.
        torus_factor: torus side length as a multiple of the range
            ``R``.  The node count follows from the density:
            ``K = round(lambda * L^2) = round(N * L^2 / (pi R^2))``.
        seed: RNG seed (placement and all per-slot draws).
    """

    params: ProtocolParameters
    scheme: str = "ORTS-OCTS"
    p: float = 0.05
    torus_factor: float = 6.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scheme not in POLICIES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; expected one of "
                f"{sorted(POLICIES)}"
            )
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {self.p!r}")
        if self.torus_factor < 3.0:
            raise ValueError(
                "torus_factor below 3 would wrap interference around the "
                f"torus; got {self.torus_factor!r}"
            )

    @property
    def policy(self) -> AntennaPolicy:
        return POLICIES[self.scheme]

    @property
    def node_count(self) -> int:
        """``K = round(N * L^2 / (pi R^2))`` with ``L = factor * R``."""
        return max(
            2,
            round(
                self.params.n_neighbors
                * self.torus_factor**2
                / math.pi
            ),
        )
