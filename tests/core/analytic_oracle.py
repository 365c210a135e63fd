"""The analytic core's per-point code before its hot loops were fused.

:mod:`repro.core.montecarlo` walks every Monte-Carlo sample in one
tight loop, and the scheme integrands and area functions evaluate one
quadrature point in one or two frames.  This module keeps the earlier
implementations verbatim: one Python frame per slot's Poisson draw and
per constraint, a frozen dataclass per area evaluation, and a validated
helper call per term.  ``tests/core/test_analytic_oracle.py`` holds the
production code to bit-identical results *and* random-generator states.

The scheme integrands are methods of the oracle subclasses below, so
``maximize_throughput``, ``throughput`` and ``p_ws`` run unchanged
library code around them; NP-CSMA's and BTMA's are their hand-written
integrands from before the schemes declared constraint tables.  The
sampler walks the paper-text constraints of
``tests/core/paper_constraints.py``, whose area functions are pinned
here separately.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from scipy import integrate

from repro.core import DrtsDcts, DrtsOcts, IdealizedBtma, NonPersistentCsma, OrtsOcts
from repro.core.montecarlo import MonteCarloEstimate
from repro.core.schemes import CollisionAvoidanceScheme

from .paper_constraints import InterferenceConstraint, constraints_for

# ----------------------------------------------------------------------
# Geometry (repro.core.geometry).
# ----------------------------------------------------------------------


def q_takagi_kleinrock(t: float) -> float:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"q(t) is defined on [0, 1], got t={t!r}")
    return math.acos(t) - t * math.sqrt(1.0 - t * t)


def disk_overlap_area(r: float) -> float:
    if not 0.0 <= r <= 2.0:
        raise ValueError(f"distance r must be in [0, 2], got {r!r}")
    return 2.0 * q_takagi_kleinrock(r / 2.0) / math.pi


def hidden_area(r: float) -> float:
    return 1.0 - disk_overlap_area(r)


def _clamp(value: float, low: float, high: float) -> float:
    return max(low, min(high, value))


@dataclass(frozen=True)
class DrtsDctsAreas:
    s1: float
    s2: float
    s3: float
    s4: float
    s5: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.s1, self.s2, self.s3, self.s4, self.s5)


def drts_dcts_areas(r: float, beamwidth: float) -> DrtsDctsAreas:
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"distance r must be in [0, 1], got {r!r}")
    if not 0.0 < beamwidth <= 2 * math.pi:
        raise ValueError(f"beamwidth must be in (0, 2*pi], got {beamwidth!r}")

    theta = beamwidth
    two_pi = 2.0 * math.pi
    # tan(theta/2) blows up at theta = pi; treat the triangle correction
    # term as saturated there (the sector fully covers the chord).
    half = theta / 2.0
    if half < math.pi / 2.0:
        tri = (r * r) * math.tan(half) / two_pi
    else:
        tri = float("inf")

    overlap = disk_overlap_area(r)  # 2 q(r/2) / pi

    s1 = theta / two_pi
    s2 = _clamp(theta / two_pi - tri if math.isfinite(tri) else 0.0, 0.0, 1.0)
    raw_s3 = overlap - theta / math.pi + (tri if math.isfinite(tri) else theta / two_pi)
    s3 = _clamp(raw_s3, 0.0, 1.0)
    s4 = _clamp(1.0 - overlap, 0.0, 1.0)
    s5 = s4
    return DrtsDctsAreas(s1=s1, s2=s2, s3=s3, s4=s4, s5=s5)


@dataclass(frozen=True)
class DrtsOctsAreas:
    s1: float
    s2: float
    s3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.s1, self.s2, self.s3)


def drts_octs_areas(r: float, beamwidth: float) -> DrtsOctsAreas:
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"distance r must be in [0, 1], got {r!r}")
    if not 0.0 < beamwidth <= 2 * math.pi:
        raise ValueError(f"beamwidth must be in (0, 2*pi], got {beamwidth!r}")
    theta = beamwidth
    two_pi = 2.0 * math.pi
    s1 = theta / two_pi
    s2 = _clamp(1.0 - theta / two_pi, 0.0, 1.0)
    s3 = _clamp(hidden_area(r), 0.0, 1.0)
    return DrtsOctsAreas(s1=s1, s2=s2, s3=s3)


# ----------------------------------------------------------------------
# Scheme integrands (repro.core.{orts_octs,drts_dcts,drts_octs}).
# ----------------------------------------------------------------------


class _OracleQuadrature:
    """``CollisionAvoidanceScheme.p_ws`` as it was: a lambda per point."""

    def p_ws(self, p: float) -> float:
        self._check_p(p)
        value, _abserr = integrate.quad(
            lambda r: 2.0 * r * self.p_ws_at_distance(r, p), 0.0, 1.0,
            limit=100,
        )
        # Guard against tiny negative values from quadrature noise.
        return min(max(value, 0.0), 1.0)


class OracleOrtsOcts(_OracleQuadrature, OrtsOcts):
    def p_ws_at_distance(self, r: float, p: float) -> float:
        self._check_p(p)
        n = self.params.n_neighbors
        p1 = p                               # x transmits
        p2 = 1.0 - p                         # y silent
        p3 = math.exp(-p * n)                # x's neighborhood silent
        vulnerable = 2.0 * self.params.l_rts + 1.0
        p4 = math.exp(-p * n * hidden_area(r) * vulnerable)
        return p1 * p2 * p3 * p4


class OracleDrtsDcts(_OracleQuadrature, DrtsDcts):
    def interference_free_probability(self, r: float, p: float) -> float:
        self._check_p(p)
        prm = self.params
        n = prm.n_neighbors
        p_dir = p * prm.directional_fraction
        areas = drts_dcts_areas(r, prm.beamwidth)

        p1 = math.exp(-p * areas.s1 * n)
        p2 = math.exp(-p_dir * areas.s2 * n * (2.0 * prm.l_rts)) * math.exp(
            -p * areas.s2 * n
        )
        whole_handshake = (
            2.0 * prm.l_rts + prm.l_cts + prm.l_data + prm.l_ack + 4.0
        )
        span = min(self.area3_span_factor * prm.beamwidth, 2.0 * math.pi)
        p_dir3 = p * span / (2.0 * math.pi)
        p3 = math.exp(-p_dir3 * areas.s3 * n * whole_handshake)
        receiver_tx = 2.0 * prm.l_rts + prm.l_cts + prm.l_ack + 2.0
        p4 = math.exp(-p_dir * areas.s4 * n * receiver_tx)
        sender_tx = 3.0 * prm.l_rts + prm.l_data + 2.0
        p5 = math.exp(-p_dir * areas.s5 * n * sender_tx)
        return p1 * p2 * p3 * p4 * p5

    def p_ws_at_distance(self, r: float, p: float) -> float:
        return p * (1.0 - p) * self.interference_free_probability(r, p)


class OracleDrtsOcts(_OracleQuadrature, DrtsOcts):
    def interference_free_probability(self, r: float, p: float) -> float:
        self._check_p(p)
        prm = self.params
        n = prm.n_neighbors
        p_dir = p * prm.directional_fraction
        areas = drts_octs_areas(r, prm.beamwidth)

        p1 = math.exp(-p * areas.s1 * n)
        p2 = math.exp(-p_dir * areas.s2 * n * (2.0 * prm.l_rts)) * math.exp(
            -p * areas.s2 * n
        )
        receiver_tx = 2.0 * prm.l_rts + prm.l_cts + prm.l_ack + 2.0
        p3 = math.exp(-p_dir * areas.s3 * n * receiver_tx)
        return p1 * p2 * p3

    def p_ws_at_distance(self, r: float, p: float) -> float:
        return p * (1.0 - p) * self.interference_free_probability(r, p)


class OracleNonPersistentCsma(_OracleQuadrature, NonPersistentCsma):
    def p_ww(self, p: float) -> float:
        self._check_p(p)
        return (1.0 - p) * math.exp(-p * self.params.n_neighbors)

    def p_ws_at_distance(self, r: float, p: float) -> float:
        self._check_p(p)
        n = self.params.n_neighbors
        vulnerable = 2.0 * self.params.l_data + 1.0
        return (
            p
            * (1.0 - p)
            * math.exp(-p * n)
            * math.exp(-p * n * hidden_area(r) * vulnerable)
        )


class OracleIdealizedBtma(_OracleQuadrature, IdealizedBtma):
    def p_ww(self, p: float) -> float:
        self._check_p(p)
        return (1.0 - p) * math.exp(-p * self.params.n_neighbors)

    def p_ws_at_distance(self, r: float, p: float) -> float:
        self._check_p(p)
        n = self.params.n_neighbors
        return (
            p
            * (1.0 - p)
            * math.exp(-p * n)          # sender's neighborhood, 1 slot
            * math.exp(-p * n * hidden_area(r))  # hidden region, 1 slot
        )


#: Library scheme class -> its oracle twin.
ORACLES = {
    OrtsOcts: OracleOrtsOcts,
    DrtsDcts: OracleDrtsDcts,
    DrtsOcts: OracleDrtsOcts,
    NonPersistentCsma: OracleNonPersistentCsma,
    IdealizedBtma: OracleIdealizedBtma,
}


# ----------------------------------------------------------------------
# Monte Carlo (repro.core.montecarlo).
# ----------------------------------------------------------------------


def _region_silent(
    rng: random.Random,
    constraint: InterferenceConstraint,
    n_neighbors: float,
) -> bool:
    lam = constraint.area * n_neighbors
    for _slot in range(constraint.slots):
        count = _poisson(rng, lam)
        for _node in range(count):
            if rng.random() < constraint.tx_probability:
                return False
    return True


def _poisson(rng: random.Random, lam: float) -> int:
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
