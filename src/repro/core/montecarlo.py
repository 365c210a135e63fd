"""Monte-Carlo validation of the analytical model.

Two independent re-encodings of Section 2 that must agree with the
closed forms — used by tests and a bench to guard against algebra
errors in areas, durations and thinning probabilities:

1. :func:`estimate_p_ws_at_distance` — samples the paper's slotted
   interference model directly: for every interference constraint
   (region, per-slot transmit probability, duration) it draws a fresh
   Poisson node count per slot and Bernoulli transmission decisions per
   node, exactly mirroring the model's slot-independence assumption.
   The closed form multiplies ``exp(-q * S * N * d)`` terms; the
   sampler never sees an exponential.
2. :func:`simulate_node_chain` — walks the wait/succeed/fail chain for
   many transitions and measures renewal-reward throughput, which must
   match the ``Th`` formula.

The constraint tables below are written from the paper's Section 2
text, deliberately *not* derived from the scheme classes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .drts_dcts import DrtsDcts
from .drts_octs import DrtsOcts
from .geometry import (
    distance_error,
    drts_dcts_areas,
    drts_octs_areas,
    hidden_area,
)
from .orts_octs import OrtsOcts
from .schemes import CollisionAvoidanceScheme

__all__ = [
    "InterferenceConstraint",
    "constraints_for",
    "estimate_p_ws_at_distance",
    "estimate_p_ws",
    "simulate_node_chain",
    "MonteCarloEstimate",
]


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


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A sample mean with its standard error."""

    mean: float
    std_error: float
    samples: int

    def within(self, reference: float, sigmas: float = 4.0, slack: float = 1e-3) -> bool:
        """Whether ``reference`` is statistically compatible."""
        return abs(self.mean - reference) <= sigmas * self.std_error + slack


def _walk(
    rng: random.Random,
    scheme: CollisionAvoidanceScheme,
    p: float,
    samples: int,
    constraints: list[InterferenceConstraint] | None,
) -> int:
    """Count the successful samples of the slotted interference model.

    Draw order, which tests and the bench goldens pin bit for bit: per
    sample, one draw for "x transmits" (``< p``), one for "y stays
    silent" (``>= p``), then, when ``constraints`` is None, one for the
    receiver distance ``r = sqrt(U)``.  Then, constraint by constraint
    and slot by slot, a Knuth Poisson node count (draws until their
    running product falls to ``exp(-area * N)``) followed by one
    Bernoulli transmit draw per node.  A region with ``area * N <= 0``
    draws nothing, and the first transmitting node ends the sample.
    """
    draw = rng.random
    n = scheme.params.n_neighbors
    successes = 0
    for _ in range(samples):
        if draw() >= p:  # x must transmit
            continue
        if draw() < p:  # y must stay silent
            continue
        rows = constraints
        if rows is None:
            rows = constraints_for(scheme, math.sqrt(draw()), p)
        silent = True
        for row in rows:
            lam = row.area * n
            if lam <= 0:
                continue
            threshold = math.exp(-lam)
            tx_probability = row.tx_probability
            for _slot in range(row.slots):
                # A fresh Poisson field per slot (slot independence);
                # mostly the first draw already says "no node".
                product = draw()
                if product > threshold:
                    count = 1
                    product *= draw()
                    while product > threshold:
                        count += 1
                        product *= draw()
                    for _node in range(count):
                        if draw() < tx_probability:
                            silent = False
                            break
                    if not silent:
                        break
            if not silent:
                break
        if silent:
            successes += 1
    return successes


def _estimate(successes: int, samples: int) -> MonteCarloEstimate:
    mean = successes / samples
    std_error = math.sqrt(max(mean * (1 - mean), 1e-12) / samples)
    return MonteCarloEstimate(mean=mean, std_error=std_error, samples=samples)


def estimate_p_ws_at_distance(
    scheme: CollisionAvoidanceScheme,
    r: float,
    p: float,
    rng: random.Random,
    samples: int = 20_000,
) -> MonteCarloEstimate:
    """Monte-Carlo estimate of ``P_ws(r)`` for one scheme."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    constraints = constraints_for(scheme, r, p)
    return _estimate(_walk(rng, scheme, p, samples, constraints), samples)


def estimate_p_ws(
    scheme: CollisionAvoidanceScheme,
    p: float,
    rng: random.Random,
    samples: int = 20_000,
) -> MonteCarloEstimate:
    """Monte-Carlo estimate of ``P_ws`` (distance integrated out).

    The receiver distance is sampled from the paper's neighbor density
    ``f(r) = 2r`` via the inverse transform ``r = sqrt(U)``.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    return _estimate(_walk(rng, scheme, p, samples, None), samples)


def simulate_node_chain(
    scheme: CollisionAvoidanceScheme,
    p: float,
    rng: random.Random,
    transitions: int = 200_000,
) -> float:
    """Renewal-reward throughput of the wait/succeed/fail chain.

    Walks the three-state chain using the scheme's ``P_ww``/``P_ws``
    and accumulates slot counts per state; returns delivered payload
    slots over total slots — the empirical counterpart of ``Th``.
    """
    if transitions < 1:
        raise ValueError(f"transitions must be >= 1, got {transitions}")
    p_ww = scheme.p_ww(p)
    p_ws = scheme.p_ws(p)
    t_succeed = scheme.t_succeed()
    t_fail = scheme.t_fail(p)

    draw = rng.random
    l_data = scheme.params.l_data
    wait_or_succeed = p_ww + p_ws
    succeed_slots = 1.0 + t_succeed  # wait slot + handshake
    fail_slots = 1.0 + t_fail

    total_time = 0.0
    payload_time = 0.0
    for _ in range(transitions):
        u = draw()
        if u < p_ww:
            total_time += 1.0  # stay in wait one slot
        elif u < wait_or_succeed:
            total_time += succeed_slots
            payload_time += l_data
        else:
            total_time += fail_slots
    return payload_time / total_time
