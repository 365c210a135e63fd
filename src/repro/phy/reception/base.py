"""The reception-model contract: who hears what, and what survives.

A :class:`ReceptionModel` answers two questions the channel and radios
used to answer for themselves:

* **link budget** — for an ordered node pair, is a transmission from
  ``src`` audible at ``dst`` at all, and at what received power?  The
  channel's fan-out resolves through ``link_budget`` and the
  :class:`~repro.phy.linkcache.LinkCache` rows through its row form
  ``link_budgets``, which a model may override with a faster loop that
  gives the same values.
* **reception outcome** — given the signals impinging on one radio
  over time, which frame (if any) is decoded?  Each radio owns a
  :class:`Receiver` created by the model; the radio keeps the
  counters, trace records and carrier-sense edges, the receiver keeps
  the per-signal bookkeeping and the collision/capture rules.

Two implementations exist: :class:`~repro.phy.reception.unitdisk.
UnitDiskReception` (the paper's binary-audibility model, bit-identical
to the pre-subsystem channel path and the default everywhere) and
:class:`~repro.phy.reception.sinr.SinrCaptureReception` (log-distance
path loss, lognormal shadowing, sensitivity and SINR capture).
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..propagation import Position, UnitDiskPropagation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..channel import Transmission

__all__ = ["RxOutcome", "Receiver", "ReceptionModel"]


class RxOutcome(enum.Enum):
    """What a finished signal means to the MAC above the radio."""

    #: The frame was decoded start-to-finish: deliver it.
    DELIVERED = "delivered"
    #: We heard garbage start-to-finish: 802.11 reacts with EIFS.
    FAILED = "failed"
    #: Nothing to report upward (missed preamble, or we were deaf).
    SILENT = "silent"


class Receiver(ABC):
    """Per-radio reception state machine.

    The radio forwards every signal edge here and acts on the returned
    verdicts; ``records`` is the live signal table (its truthiness is
    the energy half of carrier sense, read on the hot path as a plain
    attribute).  ``captures``/``sinr_drops`` count model-specific
    events; the unit-disk model leaves them at zero.
    """

    __slots__ = ("records", "captures", "sinr_drops")

    def __init__(self) -> None:
        self.records: dict[int, object] = {}
        #: Frames delivered despite overlapping interference.
        self.captures = 0
        #: Receptions abandoned mid-air because SINR fell below threshold.
        self.sinr_drops = 0

    @abstractmethod
    def signal_start(self, tx: "Transmission", power: float, deaf: bool) -> bool:
        """A signal begins impinging; returns whether it is now being decoded.

        ``deaf`` is true when the radio is transmitting (the preamble
        is lost forever, though the energy still counts).
        """

    @abstractmethod
    def signal_end(self, tx: "Transmission", transmitting: bool) -> RxOutcome | None:
        """A signal stops impinging; ``None`` means it was never tracked."""

    @abstractmethod
    def abandon(self) -> None:
        """The radio went deaf mid-reception (it started transmitting)."""


class ReceptionModel(ABC):
    """Pluggable who-hears-what physics for one :class:`~repro.phy.Channel`.

    Models are stateless per query (shadowing draws are memoized, so
    repeated queries of the same pair are stable) and deterministic:
    the link budget of an ordered pair depends only on the pair's ids,
    their positions, and the model's own configuration/seed — never on
    query order.
    """

    #: Human-readable model tag (``"unitdisk"`` or ``"sinr"``).
    name: str

    def __init__(self, propagation: UnitDiskPropagation) -> None:
        #: Delay provider (and, for the unit-disk model, the range).
        self.propagation = propagation

    @abstractmethod
    def link_budget(
        self, src_id: int, dst_id: int, src: Position, dst: Position
    ) -> tuple[bool, float]:
        """``(audible, rx_power)`` for a transmission ``src -> dst``."""

    def link_budgets(
        self,
        src_id: int,
        src: Position,
        dst_ids: Sequence[int],
        dsts: Sequence[Position],
    ) -> list[tuple[bool, float]]:
        """:meth:`link_budget` from ``src_id`` to each of ``dst_ids``, in order.

        ``dsts`` holds the receivers' positions.  Overrides must return
        exactly the per-pair values.
        """
        link_budget = self.link_budget
        return [
            link_budget(src_id, dst_id, src, dst) for dst_id, dst in zip(dst_ids, dsts)
        ]

    @abstractmethod
    def make_receiver(self) -> Receiver:
        """A fresh per-radio reception state machine."""
