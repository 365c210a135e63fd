"""Monte-Carlo cross-validation of the analytical closed forms.

These tests execute an independent slot-level encoding of Section 2
(fresh Poisson fields per slot, Bernoulli transmissions per node) and
require statistical agreement with the exponential closed forms.
"""

import math
import random

import pytest

from repro.core import (
    PAPER_PARAMETERS,
    CollisionAvoidanceScheme,
    DrtsDcts,
    DrtsOcts,
    OrtsOcts,
    estimate_p_ws,
    estimate_p_ws_at_distance,
    simulate_node_chain,
)
from repro.core.montecarlo import _sampler_rows

from .paper_constraints import InterferenceConstraint, constraints_for


def make(cls, n=3.0, theta_deg=60.0):
    return cls(
        PAPER_PARAMETERS.with_neighbors(n).with_beamwidth(math.radians(theta_deg))
    )


class TestConstraintTables:
    """The paper-text fixture the schemes' tables are checked against."""

    def test_orts_octs_has_two_constraints(self):
        constraints = constraints_for(make(OrtsOcts), 0.5, 0.05)
        assert len(constraints) == 2
        assert constraints[1].slots == 11  # 2 * 5 + 1

    def test_drts_dcts_has_six_constraints(self):
        constraints = constraints_for(make(DrtsDcts), 0.5, 0.05)
        assert len(constraints) == 6

    def test_drts_octs_has_four_constraints(self):
        constraints = constraints_for(make(DrtsOcts), 0.5, 0.05)
        assert len(constraints) == 4

    def test_untabulated_scheme_raises_before_drawing(self):
        class Untabulated(CollisionAvoidanceScheme):
            def t_fail(self, p):
                return 1.0

        scheme = Untabulated(PAPER_PARAMETERS)
        rng = random.Random(4)
        state = rng.getstate()
        with pytest.raises(TypeError, match="declares no constraint table"):
            estimate_p_ws(scheme, 0.05, rng, samples=100)
        with pytest.raises(TypeError, match="declares no constraint table"):
            estimate_p_ws_at_distance(scheme, 0.5, 0.05, rng, samples=100)
        assert rng.getstate() == state

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            InterferenceConstraint(area=-0.1, tx_probability=0.1, slots=1)
        with pytest.raises(ValueError):
            InterferenceConstraint(area=0.5, tx_probability=1.5, slots=1)
        with pytest.raises(ValueError):
            InterferenceConstraint(area=0.5, tx_probability=0.1, slots=-1)


class TestPwsAgreement:
    """Closed-form P_ws(r) must sit inside the Monte-Carlo interval."""

    @pytest.mark.parametrize("cls", [OrtsOcts, DrtsDcts, DrtsOcts])
    @pytest.mark.parametrize("r", [0.3, 0.8])
    def test_p_ws_at_distance(self, cls, r):
        scheme = make(cls)
        p = 0.05
        estimate = estimate_p_ws_at_distance(
            scheme, r, p, random.Random(42), samples=30_000
        )
        assert estimate.within(scheme.p_ws_at_distance(r, p)), (
            f"{cls.__name__} at r={r}: closed form "
            f"{scheme.p_ws_at_distance(r, p):.5f} vs MC {estimate.mean:.5f} "
            f"+- {estimate.std_error:.5f}"
        )

    @pytest.mark.parametrize("cls", [OrtsOcts, DrtsDcts, DrtsOcts])
    def test_p_ws_integrated(self, cls):
        scheme = make(cls)
        p = 0.05
        estimate = estimate_p_ws(scheme, p, random.Random(7), samples=40_000)
        assert estimate.within(scheme.p_ws(p)), (
            f"{cls.__name__}: closed form {scheme.p_ws(p):.5f} vs MC "
            f"{estimate.mean:.5f} +- {estimate.std_error:.5f}"
        )

    def test_area3_span_factor_is_sampled(self):
        # Factor 2 doubles Area III's beam span, cutting P_ws to ~40% at
        # N=3, theta=60 deg: the sampler must follow, not the factor-1 form.
        params = PAPER_PARAMETERS.with_neighbors(3.0).with_beamwidth(
            math.radians(60.0)
        )
        scheme = DrtsDcts(params, area3_span_factor=2.0)
        p = 0.05
        estimate = estimate_p_ws(scheme, p, random.Random(11), samples=40_000)
        assert abs(estimate.mean - scheme.p_ws(p)) <= 5 * estimate.std_error
        paper = DrtsDcts(params).p_ws(p)
        assert abs(estimate.mean - paper) > 5 * estimate.std_error

    def test_default_span_factor_keeps_the_thinned_probability(self):
        scheme = make(DrtsDcts)
        p = 0.05
        _area, tx_probability, _slots = _sampler_rows(scheme, p)[3]
        assert tx_probability == p * scheme.params.beamwidth / (2 * math.pi)

    def test_denser_network_agreement(self):
        scheme = make(OrtsOcts, n=8.0)
        p = 0.02
        estimate = estimate_p_ws(scheme, p, random.Random(3), samples=40_000)
        assert estimate.within(scheme.p_ws(p))

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            estimate_p_ws(make(OrtsOcts), 0.05, random.Random(0), samples=0)
        with pytest.raises(ValueError):
            estimate_p_ws_at_distance(
                make(OrtsOcts), 0.5, 0.05, random.Random(0), samples=-1
            )


class TestChainAgreement:
    """Renewal-reward walk must reproduce the Th formula."""

    @pytest.mark.parametrize("cls", [OrtsOcts, DrtsDcts, DrtsOcts])
    def test_throughput(self, cls):
        scheme = make(cls)
        p = 0.03
        empirical = simulate_node_chain(
            scheme, p, random.Random(11), transitions=300_000
        )
        analytical = scheme.throughput(p)
        assert empirical == pytest.approx(analytical, rel=0.03), (
            f"{cls.__name__}: formula {analytical:.4f} vs walk {empirical:.4f}"
        )

    def test_rejects_bad_transitions(self):
        with pytest.raises(ValueError):
            simulate_node_chain(make(OrtsOcts), 0.05, random.Random(0), 0)
