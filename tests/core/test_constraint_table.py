"""Each scheme's constraint table against the paper text and the old code.

The quadrature integrand, the numpy fast path and the Monte-Carlo
sampler all read a scheme's ``ConstraintTable``.  These tests hold the
sampler's rows ``==`` to the paper-text transcription in
``tests/core/paper_constraints.py``, and NP-CSMA's and BTMA's table
integrands ``==`` to their hand-written forms in
``tests/core/analytic_oracle.py``.
"""

import math
import random

import pytest

from repro.core import (
    PAPER_PARAMETERS,
    DrtsDcts,
    DrtsOcts,
    IdealizedBtma,
    NonPersistentCsma,
    OrtsOcts,
    estimate_p_ws,
    estimate_p_ws_at_distance,
    maximize_throughput,
)
from repro.core.montecarlo import _sampler_rows

from . import analytic_oracle as oracle
from .paper_constraints import constraints_for

NEIGHBORS = (3.0, 10.0)
#: 7 degrees with p = 0.03 is a point where ``p * theta / (2*pi)`` and
#: ``p * (theta / (2*pi))`` differ in the last bit.
BEAMWIDTHS_DEG = (5.0, 7.0, 90.0, 180.0, 360.0)
P_VALUES = (0.01, 0.03, 0.05, 0.4)
R_GRID = [i / 200 for i in range(201)]
OMNI_BASELINES = (NonPersistentCsma, IdealizedBtma)


def params(n: float, theta_deg: float):
    return PAPER_PARAMETERS.with_neighbors(n).with_beamwidth(math.radians(theta_deg))


#: Every scheme the paper text covers, with both Area-III span factors.
PAPER_SCHEMES = {
    "ORTS-OCTS": OrtsOcts,
    "DRTS-OCTS": DrtsOcts,
    "DRTS-DCTS": DrtsDcts,
    "DRTS-DCTS/span2": lambda prm: DrtsDcts(prm, area3_span_factor=2.0),
}


class TestPaperText:
    @pytest.mark.parametrize("name", sorted(PAPER_SCHEMES))
    @pytest.mark.parametrize("n", NEIGHBORS)
    @pytest.mark.parametrize("theta_deg", BEAMWIDTHS_DEG)
    @pytest.mark.parametrize("r", (0.0, 0.55, 1.0))
    @pytest.mark.parametrize("p", P_VALUES)
    def test_sampler_rows_match_the_paper(self, name, n, theta_deg, r, p):
        scheme = PAPER_SCHEMES[name](params(n, theta_deg))
        areas = scheme.constraint_table.areas(r)
        rows = [
            (areas[index], tx_probability, slots)
            for index, tx_probability, slots in _sampler_rows(scheme, p)
        ]
        expected = [
            (row.area, row.tx_probability, row.slots)
            for row in constraints_for(scheme, r, p)
        ]
        assert rows == expected


class TestOmniBaselines:
    """NP-CSMA and BTMA on the shared omni table evaluator."""

    @pytest.mark.parametrize("cls", OMNI_BASELINES)
    @pytest.mark.parametrize("n", NEIGHBORS)
    @pytest.mark.parametrize("p", P_VALUES)
    def test_p_ws_at_distance(self, cls, n, p):
        prm = params(n, 60.0)
        scheme, reference = cls(prm), oracle.ORACLES[cls](prm)
        for r in R_GRID:
            assert scheme.p_ws_at_distance(r, p) == reference.p_ws_at_distance(r, p)
        assert scheme.p_ww(p) == reference.p_ww(p)

    @pytest.mark.parametrize("cls", OMNI_BASELINES)
    @pytest.mark.parametrize("n", NEIGHBORS)
    def test_p_ws_and_optimum(self, cls, n):
        prm = params(n, 60.0)
        scheme, reference = cls(prm), oracle.ORACLES[cls](prm)
        for p in (1e-4, 0.01, 0.05, 0.4):
            assert scheme.p_ws(p) == reference.p_ws(p)
        assert maximize_throughput(scheme) == maximize_throughput(reference)

    @pytest.mark.parametrize("cls", OMNI_BASELINES)
    @pytest.mark.parametrize("r", (-0.1, 1.5, 2.0))
    def test_rejects_a_receiver_beyond_range(self, cls, r):
        scheme = cls(params(3.0, 60.0))
        with pytest.raises(ValueError, match=r"distance r must be in \[0, 1\]"):
            scheme.p_ws_at_distance(r, 0.05)
        rng = random.Random(4)
        state = rng.getstate()
        with pytest.raises(ValueError, match=r"distance r must be in \[0, 1\]"):
            estimate_p_ws_at_distance(scheme, r, 0.05, rng, samples=100)
        assert rng.getstate() == state

    @pytest.mark.parametrize("cls", OMNI_BASELINES)
    def test_sampler_agrees(self, cls):
        scheme = cls(params(3.0, 60.0))
        p = 0.02
        estimate = estimate_p_ws(scheme, p, random.Random(5), samples=20_000)
        assert estimate.within(scheme.p_ws(p))
