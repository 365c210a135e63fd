"""Tests for confidence intervals, delay percentiles and warm-up."""

import math
import random

import pytest

from repro.dessim import SECOND, seconds
from repro.mac import MacStats
from repro.metrics import (
    ConfidenceInterval,
    delay_percentiles,
    mean_confidence_interval,
)


class TestMeanConfidenceInterval:
    def test_contains_mean(self):
        ci = mean_confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert ci.lower <= ci.mean <= ci.upper
        assert ci.mean == pytest.approx(2.5)
        assert ci.count == 4

    def test_known_two_sample_case(self):
        # n=2, mean 1.5, s=sqrt(0.5), SE=0.5; t(0.975, df=1)=12.706.
        ci = mean_confidence_interval([1.0, 2.0], level=0.95)
        assert ci.half_width == pytest.approx(12.706 * 0.5, rel=1e-3)

    def test_single_sample_degenerate(self):
        ci = mean_confidence_interval([5.0])
        assert ci.lower == ci.upper == ci.mean == 5.0

    def test_more_samples_tighter(self):
        rng = random.Random(1)
        few = mean_confidence_interval([rng.gauss(0, 1) for _ in range(5)])
        many = mean_confidence_interval([rng.gauss(0, 1) for _ in range(100)])
        assert many.half_width < few.half_width

    def test_higher_level_wider(self):
        data = [1.0, 2.0, 3.0, 2.0, 1.5]
        assert (
            mean_confidence_interval(data, 0.99).half_width
            > mean_confidence_interval(data, 0.9).half_width
        )

    def test_overlap_detection(self):
        a = ConfidenceInterval(mean=1.0, lower=0.5, upper=1.5, level=0.95, count=3)
        b = ConfidenceInterval(mean=1.4, lower=1.2, upper=1.6, level=0.95, count=3)
        c = ConfidenceInterval(mean=3.0, lower=2.5, upper=3.5, level=0.95, count=3)
        assert a.overlaps(b)
        assert b.overlaps(a)
        assert not a.overlaps(c)

    def test_coverage_property(self):
        # ~95% of CIs from N(0,1) samples should contain 0.
        rng = random.Random(7)
        hits = 0
        trials = 300
        for _ in range(trials):
            ci = mean_confidence_interval(
                [rng.gauss(0, 1) for _ in range(10)], level=0.95
            )
            if ci.lower <= 0.0 <= ci.upper:
                hits += 1
        assert 0.90 <= hits / trials <= 0.99

    @pytest.mark.parametrize(
        "n, level, lower, upper",
        [
            (2, 0.9, -4.815587310174252, 6.628087310174252),
            (2, 0.95, -10.608748042158316, 12.421248042158316),
            (2, 0.99, -56.782671678852324, 58.595171678852324),
            (3, 0.9, -0.6322750173993442, 2.423941684066011),
            (3, 0.95, -1.3558625691637003, 3.1475292358303673),
            (3, 0.99, -4.298108676886612, 6.089775343553278),
            (7, 0.9, 0.7776244027387371, 2.2402327401184055),
            (7, 0.95, 0.5880480668753096, 2.429809075981833),
            (7, 0.99, 0.11366041525247672, 2.904196727604666),
            (50, 0.9, 2.4825715420053482, 3.059928457994652),
            (50, 0.95, 2.425229438838734, 3.1172705611612663),
            (50, 0.99, 2.3098000036684643, 3.232699996331536),
        ],
    )
    def test_exact_bounds(self, n, level, lower, upper):
        # Bit-exact bounds, recorded with scipy.stats imported at module
        # load; the interval must not move when that import moves.
        samples = [((7 * i) % 11) / 4.0 + i / 16.0 for i in range(n)]
        ci = mean_confidence_interval(samples, level)
        assert (ci.lower, ci.upper) == (lower, upper)

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0], level=1.5)


class TestDelayPercentiles:
    def stats_with_delays(self, delays):
        s = MacStats()
        s.delays_ns.extend(delays)
        return {0: s}

    def test_median_of_odd_set(self):
        stats = self.stats_with_delays([1 * SECOND, 2 * SECOND, 3 * SECOND])
        assert delay_percentiles(stats, quantiles=(0.5,))[0.5] == pytest.approx(2.0)

    def test_extremes(self):
        stats = self.stats_with_delays([i * SECOND for i in range(1, 101)])
        result = delay_percentiles(stats, quantiles=(0.0, 1.0))
        assert result[0.0] == pytest.approx(1.0)
        assert result[1.0] == pytest.approx(100.0)

    def test_tail_above_median(self):
        stats = self.stats_with_delays([i * SECOND for i in range(1, 101)])
        result = delay_percentiles(stats, quantiles=(0.5, 0.99))
        assert result[0.99] > result[0.5]

    def test_empty_returns_empty(self):
        assert delay_percentiles({0: MacStats()}) == {}

    def test_rejects_bad_quantile(self):
        stats = self.stats_with_delays([SECOND])
        with pytest.raises(ValueError):
            delay_percentiles(stats, quantiles=(1.5,))


class TestWarmup:
    def test_warmup_discards_transient(self):
        from repro.net import (
            NetworkSimulation,
            TopologyConfig,
            generate_ring_topology,
        )

        topo = generate_ring_topology(TopologyConfig(n=3), random.Random(13))
        cold = NetworkSimulation(topo, "ORTS-OCTS", math.pi, seed=2).run(
            seconds(0.5)
        )
        warm = NetworkSimulation(topo, "ORTS-OCTS", math.pi, seed=2).run(
            seconds(0.5), warmup_ns=seconds(0.5)
        )
        # Warm measurements cover the same window length but start from
        # a mixed state; both deliver traffic.
        assert cold.inner_packets_delivered > 0
        assert warm.inner_packets_delivered > 0
        # Totals cannot be identical: the warm run's counters exclude
        # the first 0.5 s that the cold run counts.
        total_cold = sum(s.packets_delivered for s in cold.stats.values())
        total_warm = sum(s.packets_delivered for s in warm.stats.values())
        assert total_warm != 0
        assert total_cold != 0

    def test_warmup_validation(self):
        from repro.net import (
            NetworkSimulation,
            TopologyConfig,
            generate_ring_topology,
        )

        topo = generate_ring_topology(TopologyConfig(n=3), random.Random(13))
        net = NetworkSimulation(topo, "ORTS-OCTS", math.pi, seed=0)
        with pytest.raises(ValueError):
            net.run(seconds(1), warmup_ns=-1)

    def test_stats_reset(self):
        s = MacStats()
        s.record_delivery(100, 5)
        s.rts_sent = 7
        s.reset()
        assert s.packets_delivered == 0
        assert s.rts_sent == 0
        assert s.delays_ns == []
        assert s.bits_delivered == 0


class TestNearIdenticalSamples:
    def test_underflowing_half_width_keeps_invariant(self):
        """Regression: when the half-width underflows on near-identical
        samples, the bounds are clamped to the mean instead of tripping
        ConfidenceInterval's lower <= mean <= upper check."""
        base = 0.1 + 0.2  # not exactly representable
        samples = [base] * 6 + [math.nextafter(base, 1.0)]
        ci = mean_confidence_interval(samples)
        assert ci.lower <= ci.mean <= ci.upper
        assert ci.half_width >= 0.0

    def test_identical_tiny_samples(self):
        # The mean of eight identical tiny values picks up summation
        # rounding, so the variance is a denormal-scale artifact; the
        # clamped interval must still bracket the mean.
        ci = mean_confidence_interval([2.5e-17] * 8)
        assert ci.lower <= ci.mean <= ci.upper

    def test_huge_magnitude_samples(self):
        samples = [1e308, math.nextafter(1e308, 0.0), 1e308]
        ci = mean_confidence_interval(samples)
        assert ci.lower <= ci.mean <= ci.upper
