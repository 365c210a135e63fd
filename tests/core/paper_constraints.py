"""Section 2's interference constraints, transcribed from the paper's text.

Each scheme in :mod:`repro.core` declares its constraints once, as a
``ConstraintTable`` that the quadrature integrand, the numpy fast path
and the Monte-Carlo sampler all read.  This module is the independent
check on that table: the constraints written out again from the
paper's Sections 2.1-2.3, deliberately *not* derived from the scheme
classes.  ``tests/core/test_constraint_table.py`` holds the sampler's
rows ``==`` to these, and ``tests/core/analytic_oracle.py``'s sampler
walks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.drts_dcts import DrtsDcts
from repro.core.drts_octs import DrtsOcts
from repro.core.geometry import (
    distance_error,
    drts_dcts_areas,
    drts_octs_areas,
    hidden_area,
)
from repro.core.orts_octs import OrtsOcts
from repro.core.schemes import CollisionAvoidanceScheme


@dataclass(frozen=True)
class InterferenceConstraint:
    """"No node in ``area`` transmits (w.p. ``tx_probability`` per slot)
    for ``slots`` consecutive slots"."""

    area: float
    tx_probability: float
    slots: int

    def __post_init__(self) -> None:
        if self.area < 0:
            raise ValueError(f"area must be >= 0, got {self.area}")
        if not 0 <= self.tx_probability <= 1:
            raise ValueError(
                f"tx_probability must be in [0,1], got {self.tx_probability}"
            )
        if self.slots < 0:
            raise ValueError(f"slots must be >= 0, got {self.slots}")


def constraints_for(
    scheme: CollisionAvoidanceScheme, r: float, p: float
) -> list[InterferenceConstraint]:
    """The Section-2 interference constraints for one scheme at distance ``r``.

    Transcribed from the paper's text (Sections 2.1-2.3), not from the
    scheme classes, so tests comparing the two are meaningful.
    """
    if not 0.0 <= r <= 1.0:
        raise distance_error(r)
    prm = scheme.params
    p_dir = p * prm.beamwidth / (2 * math.pi)
    l_rts, l_cts = prm.l_rts, prm.l_cts
    l_data, l_ack = prm.l_data, prm.l_ack

    if isinstance(scheme, OrtsOcts):
        return [
            # "none of the nodes within R of x transmits in the same slot"
            InterferenceConstraint(1.0, p, 1),
            # "none of the nodes in B(r) transmits for (2 l_rts + 1) slots"
            InterferenceConstraint(hidden_area(r), p, int(2 * l_rts + 1)),
        ]
    if isinstance(scheme, DrtsOcts):
        areas = drts_octs_areas(r, prm.beamwidth)
        return [
            InterferenceConstraint(areas.s1, p, 1),
            InterferenceConstraint(areas.s2, p_dir, int(2 * l_rts)),
            InterferenceConstraint(areas.s2, p, 1),
            InterferenceConstraint(
                areas.s3, p_dir, int(2 * l_rts + l_cts + l_ack + 2)
            ),
        ]
    if isinstance(scheme, DrtsDcts):
        areas = drts_dcts_areas(r, prm.beamwidth)
        # Area III's beams span theta' = factor * theta (the paper picks 1).
        span = min(scheme.area3_span_factor * prm.beamwidth, 2 * math.pi)
        return [
            InterferenceConstraint(areas.s1, p, 1),
            InterferenceConstraint(areas.s2, p_dir, int(2 * l_rts)),
            InterferenceConstraint(areas.s2, p, 1),
            InterferenceConstraint(
                areas.s3,
                p * span / (2 * math.pi),
                int(2 * l_rts + l_cts + l_data + l_ack + 4),
            ),
            InterferenceConstraint(
                areas.s4, p_dir, int(2 * l_rts + l_cts + l_ack + 2)
            ),
            InterferenceConstraint(
                areas.s5, p_dir, int(3 * l_rts + l_data + 2)
            ),
        ]
    raise TypeError(f"no constraint table for {type(scheme).__name__}")
