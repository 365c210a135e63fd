"""Property-based checks of the slot-model engine's bookkeeping."""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import PAPER_PARAMETERS
from repro.mac.policy import POLICIES
from repro.slotsim import SlotModelConfig

from .scalar_engine import SlotModelEngine


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scheme=st.sampled_from(sorted(POLICIES)),
    theta_deg=st.sampled_from([15.0, 60.0, 150.0]),
    p=st.floats(min_value=0.005, max_value=0.15),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_engine_bookkeeping_invariants(scheme, theta_deg, p, seed):
    params = PAPER_PARAMETERS.with_neighbors(3.0).with_beamwidth(
        math.radians(theta_deg)
    )
    engine = SlotModelEngine(
        SlotModelConfig(params=params, scheme=scheme, p=p, seed=seed)
    )
    results = engine.run(3_000)

    # Outcome accounting.
    assert results.successes + results.failures <= results.initiations
    assert results.payload_slots == results.successes * params.l_data
    assert sum(results.fail_durations.values()) == results.failures
    assert set(results.fail_durations) <= {12, 119}
    assert 0.0 <= results.throughput_per_node < 1.0
    assert 0.0 <= results.success_ratio <= 1.0

    # Engine internal consistency after the run: every active handshake
    # has its sender engaged, and engaged nodes map to live handshakes.
    for hs in engine._active:
        assert engine._engaged.get(hs.sender) is hs
        if hs.responded:
            assert engine._engaged.get(hs.receiver) is hs
    for node, hs in engine._engaged.items():
        assert hs in engine._active
        assert node in (hs.sender, hs.receiver)
