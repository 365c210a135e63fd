"""Declarative reception-model selection, fingerprint-friendly.

:class:`PhyConfig` is the picklable, ``dataclasses.asdict``-able knob
bundle that study configurations embed: every field lands in the
campaign store's ``config_fingerprint``, so two campaigns that differ
in any reception knob refuse to share a directory.  ``build`` turns
the record into a live :class:`~repro.phy.reception.base.
ReceptionModel` inside the worker process (the model itself holds a
shadowing cache and an RNG registry, neither of which belongs in a
config fingerprint).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...dessim.rng import RngRegistry
from ..frames import PhyParameters
from ..propagation import UnitDiskPropagation
from .base import ReceptionModel
from .sinr import SinrCaptureReception
from .unitdisk import UnitDiskReception

__all__ = ["PhyConfig", "RECEPTION_MODELS"]

#: The registered reception-model tags, in presentation order.
RECEPTION_MODELS = ("unitdisk", "sinr")


@dataclass(frozen=True)
class PhyConfig:
    """Which reception model a simulation runs, and its knobs.

    The default is the paper's unit-disk model with no extra
    parameters — building it is bit-identical to not passing a
    ``PhyConfig`` at all.  The remaining fields configure
    :class:`~repro.phy.reception.sinr.SinrCaptureReception` and are
    ignored (but still fingerprinted) under ``model="unitdisk"``.

    Default budget, for orientation: 20 dBm into a 40 dB reference
    loss at 1 m with exponent 3.0 crosses the -94 dBm sensitivity near
    290 m — comparable to the paper's 300 m disk — and the -104 dBm
    noise floor leaves exactly the 10 dB capture threshold of SNR at
    the sensitivity edge.
    """

    model: str = "unitdisk"
    tx_power_dbm: float = 20.0
    pathloss_exponent: float = 3.0
    reference_distance_m: float = 1.0
    reference_loss_db: float = 40.0
    shadowing_sigma_db: float = 6.0
    sensitivity_dbm: float = -94.0
    noise_dbm: float = -104.0
    capture_threshold_db: float = 10.0

    def __post_init__(self) -> None:
        if self.model not in RECEPTION_MODELS:
            raise ValueError(
                f"unknown reception model {self.model!r}; "
                f"expected one of {RECEPTION_MODELS}"
            )

    def build(
        self,
        propagation: UnitDiskPropagation,
        phy: PhyParameters,
        registry: RngRegistry,
    ) -> ReceptionModel:
        """Instantiate the configured model for one simulation run.

        Args:
            propagation: delay (and, for unit-disk, range) provider.
            phy: frame-level parameters; the unit-disk model reads its
                legacy ``capture_threshold`` from here.
            registry: the run's RNG registry; the SINR model draws its
                per-pair ``shadow-{src}-{dst}`` gaussians from it.
        """
        if self.model == "unitdisk":
            return UnitDiskReception(
                propagation, capture_threshold=phy.capture_threshold
            )
        return SinrCaptureReception(
            propagation,
            registry,
            tx_power_dbm=self.tx_power_dbm,
            pathloss_exponent=self.pathloss_exponent,
            reference_distance_m=self.reference_distance_m,
            reference_loss_db=self.reference_loss_db,
            shadowing_sigma_db=self.shadowing_sigma_db,
            sensitivity_dbm=self.sensitivity_dbm,
            noise_dbm=self.noise_dbm,
            capture_threshold_db=self.capture_threshold_db,
        )
