"""Slot-level simulator of the analytical model's world.

The middle rung of the repository's three-fidelity ladder:

1. :mod:`repro.core` — closed forms under full slot-independence,
2. :mod:`repro.slotsim` — the *same* abstract protocol world simulated
   faithfully (fixed node draw, persistent interferers, checkpointed
   failure detection) on a torus,
3. :mod:`repro.net` + :mod:`repro.mac` — the full IEEE 802.11 DES.

Comparing 1 vs 2 isolates the model's independence assumptions;
comparing 2 vs 3 isolates everything 802.11 adds (carrier sense, NAV,
BEB).

:class:`BatchSlotModelEngine` is the one engine.  The scalar engine it
replaced, that engine's pairwise torus geometry and the replay of its
:class:`random.Random` stream on the batch engine are test oracles
under ``tests/slotsim/``.
"""

from .batch import BatchGeometry, BatchSlotModelEngine, SlotModelResults
from .model import SlotModelConfig

__all__ = [
    "BatchGeometry",
    "BatchSlotModelEngine",
    "SlotModelConfig",
    "SlotModelResults",
]
