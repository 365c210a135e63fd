"""Monte-Carlo validation of the analytical model.

Two re-evaluations of Section 2 that must agree with the closed forms
— used by tests and a bench to guard against algebra errors in the
evaluation of areas, durations and thinning probabilities:

1. :func:`estimate_p_ws_at_distance` — samples the paper's slotted
   interference model directly: for every window of the scheme's
   constraint table (region, per-slot transmit probability, duration)
   it draws a fresh Poisson node count per slot and Bernoulli
   transmission decisions per node, exactly mirroring the model's
   slot-independence assumption.  The closed form multiplies
   ``exp(-q * S * N * d)`` terms; the sampler never sees an exponential
   of a window.
2. :func:`simulate_node_chain` — walks the wait/succeed/fail chain for
   many transitions and measures renewal-reward throughput, which must
   match the ``Th`` formula.

The sampler reads the same constraint table as the closed form; the
table itself is checked against an independent transcription of the
paper's Section 2 text, ``tests/core/paper_constraints.py``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .geometry import distance_error
from .schemes import BEAM, OMNI, SPAN, CollisionAvoidanceScheme

__all__ = [
    "estimate_p_ws_at_distance",
    "estimate_p_ws",
    "simulate_node_chain",
    "MonteCarloEstimate",
]


def _sampler_rows(
    scheme: CollisionAvoidanceScheme, p: float
) -> list[tuple[int, float, int]]:
    """The table's windows as ``(area index, tx probability, slots)``.

    A beam covers a victim with probability ``theta / (2*pi)`` (Area
    III's with ``span / (2*pi)``).  Raises ``TypeError`` for a scheme
    without a table.
    """
    table = scheme.constraint_table
    tx_probability = {
        OMNI: p,
        BEAM: p * scheme.params.beamwidth / (2 * math.pi),
        SPAN: p * table.span / (2 * math.pi),
    }
    return [
        (index, tx_probability[thinning], int(slots))
        for index, slots, thinning, _closes in table.rows
    ]


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
    r: float | None,
) -> int:
    """Count the successful samples of the slotted interference model.

    Draw order, which tests and the bench goldens pin bit for bit: per
    sample, one draw for "x transmits" (``< p``), one for "y stays
    silent" (``>= p``), then, when ``r`` is None, one for the receiver
    distance ``r = sqrt(U)``.  Then, window by window of the table and
    slot by slot, a Knuth Poisson node count (draws until their running
    product falls to ``exp(-area * N)``) followed by one Bernoulli
    transmit draw per node.  A region with ``area * N <= 0`` draws
    nothing, and the first transmitting node ends the sample.
    """
    rows = _sampler_rows(scheme, p)
    areas = scheme.constraint_table.areas
    fixed = None if r is None else areas(r)
    draw = rng.random
    n = scheme.params.n_neighbors
    successes = 0
    for _ in range(samples):
        if draw() >= p:  # x must transmit
            continue
        if draw() < p:  # y must stay silent
            continue
        s = fixed
        if s is None:
            s = areas(math.sqrt(draw()))
        silent = True
        for index, tx_probability, slots in rows:
            lam = s[index] * n
            if lam <= 0:
                continue
            threshold = math.exp(-lam)
            for _slot in range(slots):
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
    if not 0.0 <= r <= 1.0:
        raise distance_error(r)
    return _estimate(_walk(rng, scheme, p, samples, r), samples)


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
