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
from .geometry import drts_dcts_areas, drts_octs_areas, hidden_area
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


def _region_silent(
    rng: random.Random,
    constraint: InterferenceConstraint,
    n_neighbors: float,
) -> bool:
    """One Bernoulli sample of "the region stays silent long enough".

    Per the paper's slot-independence, every slot sees a fresh Poisson
    field: draw the node count, then per-node transmission decisions.
    """
    lam = constraint.area * n_neighbors
    for _slot in range(constraint.slots):
        count = _poisson(rng, lam)
        for _node in range(count):
            if rng.random() < constraint.tx_probability:
                return False
    return True


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's Poisson sampler (lambda is always small here)."""
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    count, product = 0, rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


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
    n = scheme.params.n_neighbors
    successes = 0
    for _ in range(samples):
        if rng.random() >= p:  # x must transmit
            continue
        if rng.random() < p:  # y must stay silent
            continue
        if all(_region_silent(rng, c, n) for c in constraints):
            successes += 1
    mean = successes / samples
    std_error = math.sqrt(max(mean * (1 - mean), 1e-12) / samples)
    return MonteCarloEstimate(mean=mean, std_error=std_error, samples=samples)


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
    n = scheme.params.n_neighbors
    successes = 0
    for _ in range(samples):
        if rng.random() >= p:
            continue
        if rng.random() < p:
            continue
        r = math.sqrt(rng.random())
        constraints = constraints_for(scheme, r, p)
        if all(_region_silent(rng, c, n) for c in constraints):
            successes += 1
    mean = successes / samples
    std_error = math.sqrt(max(mean * (1 - mean), 1e-12) / samples)
    return MonteCarloEstimate(mean=mean, std_error=std_error, samples=samples)


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

    total_time = 0.0
    payload_time = 0.0
    for _ in range(transitions):
        draw = rng.random()
        if draw < p_ww:
            total_time += 1.0  # stay in wait one slot
        elif draw < p_ww + p_ws:
            total_time += 1.0 + t_succeed  # wait slot + handshake
            payload_time += scheme.params.l_data
        else:
            total_time += 1.0 + t_fail
    return payload_time / total_time
