"""Tests pinning the numpy fast path to the reference implementation."""

import math

import numpy as np
import pytest

from repro.core import (
    PAPER_PARAMETERS,
    CollisionAvoidanceScheme,
    DrtsDcts,
    DrtsOcts,
    IdealizedBtma,
    OrtsOcts,
)
from repro.core.fastpath import p_ws_curve, throughput_curve


def make(cls, n=5.0, theta_deg=30.0, **kw):
    params = PAPER_PARAMETERS.with_neighbors(n).with_beamwidth(
        math.radians(theta_deg)
    )
    return cls(params, **kw)


P_GRID = np.array([0.005, 0.02, 0.05, 0.1, 0.2])


class TestAgainstReference:
    @pytest.mark.parametrize("cls", [OrtsOcts, DrtsDcts, DrtsOcts, IdealizedBtma])
    def test_p_ws_matches_quadrature(self, cls):
        scheme = make(cls)
        fast = p_ws_curve(scheme, P_GRID)
        slow = np.array([scheme.p_ws(float(p)) for p in P_GRID])
        assert np.allclose(fast, slow, rtol=1e-3, atol=1e-9)

    @pytest.mark.parametrize("cls", [OrtsOcts, DrtsDcts, DrtsOcts])
    def test_throughput_matches_reference(self, cls):
        scheme = make(cls)
        fast = throughput_curve(scheme, P_GRID)
        slow = np.array([scheme.throughput(float(p)) for p in P_GRID])
        assert np.allclose(fast, slow, rtol=2e-3)

    @pytest.mark.parametrize("theta", [15.0, 90.0, 180.0])
    def test_beamwidth_coverage(self, theta):
        scheme = make(DrtsDcts, theta_deg=theta)
        fast = throughput_curve(scheme, P_GRID)
        slow = np.array([scheme.throughput(float(p)) for p in P_GRID])
        assert np.allclose(fast, slow, rtol=2e-3)

    def test_area3_span_factor_respected(self):
        paper = make(DrtsDcts, area3_span_factor=1.0)
        upper = make(DrtsDcts, area3_span_factor=2.0)
        fast_paper = throughput_curve(paper, P_GRID)
        fast_upper = throughput_curve(upper, P_GRID)
        assert (fast_upper <= fast_paper + 1e-12).all()
        slow_upper = np.array([upper.throughput(float(p)) for p in P_GRID])
        assert np.allclose(fast_upper, slow_upper, rtol=2e-3)


class TestValidation:
    def test_rejects_unsupported_scheme(self):
        class Untabulated(CollisionAvoidanceScheme):
            def t_fail(self, p):
                return 1.0

        with pytest.raises(TypeError, match="declares no constraint table"):
            p_ws_curve(Untabulated(PAPER_PARAMETERS), P_GRID)

    def test_rejects_bad_p(self):
        scheme = make(OrtsOcts)
        with pytest.raises(ValueError):
            p_ws_curve(scheme, np.array([0.0, 0.1]))
        with pytest.raises(ValueError):
            p_ws_curve(scheme, np.array([]))
        with pytest.raises(ValueError):
            p_ws_curve(scheme, np.array([[0.1]]))


class TestUsefulness:
    def test_dense_curve_is_fast_enough(self):
        import time

        scheme = make(DrtsDcts)
        grid = np.linspace(0.001, 0.3, 500)
        start = time.perf_counter()
        values = throughput_curve(scheme, grid)
        elapsed = time.perf_counter() - start
        assert values.shape == (500,)
        assert elapsed < 2.0  # the reference would take far longer

    def test_curve_is_unimodal_in_practice(self):
        scheme = make(OrtsOcts)
        grid = np.linspace(0.001, 0.4, 400)
        values = throughput_curve(scheme, grid)
        peak = values.argmax()
        assert (np.diff(values[: peak + 1]) >= -1e-9).all()
        assert (np.diff(values[peak:]) <= 1e-9).all()
