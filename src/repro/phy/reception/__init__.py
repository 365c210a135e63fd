"""Pluggable reception models: who hears what, and what survives.

See :mod:`repro.phy.reception.base` for the contract,
:mod:`~repro.phy.reception.unitdisk` for the paper's model (the
default and the equivalence oracle), and
:mod:`~repro.phy.reception.sinr` for the SINR/capture model.
"""

from .base import ReceptionModel, Receiver, RxOutcome
from .config import RECEPTION_MODELS, PhyConfig
from .sinr import (
    SinrCaptureReception,
    SinrReceiver,
    clear_shadowing_memo,
    dbm_to_mw,
    mw_to_dbm,
)
from .unitdisk import UnitDiskReceiver, UnitDiskReception

__all__ = [
    "ReceptionModel",
    "Receiver",
    "RxOutcome",
    "PhyConfig",
    "RECEPTION_MODELS",
    "UnitDiskReception",
    "UnitDiskReceiver",
    "SinrCaptureReception",
    "SinrReceiver",
    "clear_shadowing_memo",
    "dbm_to_mw",
    "mw_to_dbm",
]
