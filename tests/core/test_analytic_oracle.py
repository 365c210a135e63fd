"""The analytic core's fused hot paths against their earlier code.

``tests/core/analytic_oracle.py`` keeps the Monte-Carlo sampler, the
scheme integrands and the area functions as they were before their
loops were fused.  Every assertion here is ``==``: the same floats, the
same sample counts and the same random-generator state afterwards, so
the bench's full-precision digests cannot drift.
"""

import math
import random

import pytest

from repro.core import (
    PAPER_PARAMETERS,
    DrtsDcts,
    DrtsOcts,
    OrtsOcts,
    drts_dcts_areas,
    drts_octs_areas,
    estimate_p_ws,
    estimate_p_ws_at_distance,
    hidden_area,
    maximize_throughput,
    simulate_node_chain,
)

from . import analytic_oracle as oracle
from .paper_constraints import constraints_for

SCHEMES = (OrtsOcts, DrtsDcts, DrtsOcts)
NEIGHBORS = (3.0, 10.0)
#: 180 and 360 degrees take eq. (4)'s saturated branch (tan(theta/2)
#: diverges); at 360 degrees DRTS-OCTS's Area II is empty.
BEAMWIDTHS_DEG = (5.0, 90.0, 180.0, 360.0)
SEEDS = (1, 2003)
#: 0.4 makes most sampled handshakes fail on a transmitting node.
P_VALUES = (0.01, 0.05, 0.4)
SAMPLES = 1_500
#: A dense distance grid with both ends.
R_GRID = [i / 200 for i in range(201)]


def params(n: float, theta_deg: float):
    return PAPER_PARAMETERS.with_neighbors(n).with_beamwidth(math.radians(theta_deg))


def pair(cls, n: float, theta_deg: float):
    """The library scheme and its oracle twin on the same parameters."""
    prm = params(n, theta_deg)
    return cls(prm), oracle.ORACLES[cls](prm)


grid = pytest.mark.parametrize(
    "cls,n,theta_deg",
    [
        (cls, n, theta)
        for cls in SCHEMES
        for n in NEIGHBORS
        for theta in BEAMWIDTHS_DEG
    ],
)


class TestSampler:
    @grid
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("p", P_VALUES)
    def test_estimate_p_ws(self, cls, n, theta_deg, seed, p):
        scheme = cls(params(n, theta_deg))
        rng, reference_rng = random.Random(seed), random.Random(seed)
        estimate = estimate_p_ws(scheme, p, rng, samples=SAMPLES)
        expected = oracle.estimate_p_ws(scheme, p, reference_rng, samples=SAMPLES)
        assert estimate == expected
        assert rng.getstate() == reference_rng.getstate()

    @grid
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize("r", (0.0, 0.55, 1.0))
    def test_estimate_p_ws_at_distance(self, cls, n, theta_deg, seed, p, r):
        scheme = cls(params(n, theta_deg))
        rng, reference_rng = random.Random(seed), random.Random(seed)
        estimate = estimate_p_ws_at_distance(scheme, r, p, rng, samples=SAMPLES)
        expected = oracle.estimate_p_ws_at_distance(
            scheme, r, p, reference_rng, samples=SAMPLES
        )
        assert estimate == expected
        assert rng.getstate() == reference_rng.getstate()

    def test_span_factor_two(self):
        scheme = DrtsDcts(params(3.0, 60.0), area3_span_factor=2.0)
        rng, reference_rng = random.Random(11), random.Random(11)
        assert estimate_p_ws(scheme, 0.05, rng, SAMPLES) == oracle.estimate_p_ws(
            scheme, 0.05, reference_rng, SAMPLES
        )
        assert rng.getstate() == reference_rng.getstate()

    @pytest.mark.parametrize("cls", SCHEMES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_node_chain(self, cls, seed):
        scheme = cls(params(3.0, 30.0))
        rng, reference_rng = random.Random(seed), random.Random(seed)
        walk = simulate_node_chain(scheme, 0.03, rng, transitions=20_000)
        expected = oracle.simulate_node_chain(
            scheme, 0.03, reference_rng, transitions=20_000
        )
        assert walk == expected
        assert rng.getstate() == reference_rng.getstate()


class TestSamplerCoverage:
    """The identity cases above reach every exit of the walker."""

    def test_empty_region_draws_nothing(self):
        # DRTS-OCTS at 360 degrees: Area II vanishes, so two of the four
        # rows must be skipped without a single draw.
        rows = constraints_for(DrtsOcts(params(3.0, 360.0)), 0.5, 0.05)
        assert [row.area for row in rows[1:3]] == [0.0, 0.0]

    def test_saturated_branch_is_taken(self):
        # At r = 0 the finite branch leaves Area II at theta / 2pi; the
        # saturated one (theta >= pi) sets it to 0.
        assert drts_dcts_areas(0.0, math.radians(90.0)).s2 == 0.25
        for theta_deg in (180.0, 360.0):
            assert drts_dcts_areas(0.0, math.radians(theta_deg)).s2 == 0.0

    def test_transmitting_node_ends_samples(self):
        # At p = 0.4 a sampled handshake (x sends, y silent) succeeds far
        # less often than p * (1 - p): the rest ended on a Bernoulli draw.
        p = 0.4
        scheme = OrtsOcts(params(3.0, 90.0))
        estimate = estimate_p_ws_at_distance(
            scheme, 0.55, p, random.Random(1), samples=SAMPLES
        )
        assert estimate.mean < 0.5 * p * (1 - p)


class TestIntegrands:
    @grid
    @pytest.mark.parametrize("p", P_VALUES)
    def test_p_ws_at_distance(self, cls, n, theta_deg, p):
        scheme, reference = pair(cls, n, theta_deg)
        for r in R_GRID:
            assert scheme.p_ws_at_distance(r, p) == reference.p_ws_at_distance(r, p)

    @pytest.mark.parametrize("cls", (DrtsDcts, DrtsOcts))
    @pytest.mark.parametrize("theta_deg", BEAMWIDTHS_DEG)
    def test_interference_free_probability(self, cls, theta_deg):
        scheme, reference = pair(cls, 10.0, theta_deg)
        for r in R_GRID:
            assert scheme.interference_free_probability(
                r, 0.05
            ) == reference.interference_free_probability(r, 0.05)

    @grid
    def test_p_ws(self, cls, n, theta_deg):
        scheme, reference = pair(cls, n, theta_deg)
        for p in (1e-4, 0.01, 0.05, 0.4):
            assert scheme.p_ws(p) == reference.p_ws(p)

    @grid
    def test_maximize_throughput(self, cls, n, theta_deg):
        scheme, reference = pair(cls, n, theta_deg)
        assert maximize_throughput(scheme) == maximize_throughput(reference)


class TestAreas:
    @pytest.mark.parametrize("theta_deg", BEAMWIDTHS_DEG + (30.0, 179.9, 180.1))
    def test_drts_dcts(self, theta_deg):
        theta = math.radians(theta_deg)
        for r in R_GRID:
            assert (
                drts_dcts_areas(r, theta).as_tuple()
                == oracle.drts_dcts_areas(r, theta).as_tuple()
            )

    @pytest.mark.parametrize("theta_deg", BEAMWIDTHS_DEG + (30.0, 179.9, 180.1))
    def test_drts_octs(self, theta_deg):
        theta = math.radians(theta_deg)
        for r in R_GRID:
            assert (
                drts_octs_areas(r, theta).as_tuple()
                == oracle.drts_octs_areas(r, theta).as_tuple()
            )


class TestDistanceDomain:
    """Every scheme and estimator takes r in [0, 1] only."""

    @pytest.mark.parametrize("cls", SCHEMES)
    @pytest.mark.parametrize("r", (-0.1, 1.5, 2.0))
    def test_schemes_reject(self, cls, r):
        scheme = cls(params(3.0, 60.0))
        with pytest.raises(ValueError, match=r"distance r must be in \[0, 1\]"):
            scheme.p_ws_at_distance(r, 0.05)

    @pytest.mark.parametrize("cls", SCHEMES)
    @pytest.mark.parametrize("r", (-0.1, 1.5))
    def test_estimator_rejects_before_drawing(self, cls, r):
        scheme = cls(params(3.0, 60.0))
        rng = random.Random(4)
        state = rng.getstate()
        with pytest.raises(ValueError, match=r"distance r must be in \[0, 1\]"):
            estimate_p_ws_at_distance(scheme, r, 0.05, rng, samples=100)
        assert rng.getstate() == state

    def test_hidden_area_keeps_its_domain(self):
        assert hidden_area(1.5) == oracle.hidden_area(1.5)
        assert hidden_area(2.0) == 1.0

    def test_params_are_read_only(self):
        # The schemes hoist terms derived from their parameters.
        scheme = DrtsDcts(params(3.0, 60.0))
        with pytest.raises(AttributeError):
            scheme.params = params(8.0, 60.0)
        with pytest.raises(AttributeError):
            scheme.area3_span_factor = 2.0
