"""Tests for run-level metric computations."""

import pytest

from repro.dessim import SECOND
from repro.mac import MacStats
from repro.metrics import (
    ReplicateSummary,
    aggregate_collision_ratio,
    aggregate_throughput_bps,
    mean_delay_seconds,
    per_node_throughput_bps,
    summarize,
)


def stats_with(**kw):
    s = MacStats()
    for key, value in kw.items():
        setattr(s, key, value)
    return s


class TestThroughput:
    def test_aggregate(self):
        stats = {
            0: stats_with(bits_delivered=1_000_000),
            1: stats_with(bits_delivered=500_000),
        }
        assert aggregate_throughput_bps(stats, SECOND) == pytest.approx(1_500_000)

    def test_node_selection(self):
        stats = {
            0: stats_with(bits_delivered=1_000_000),
            1: stats_with(bits_delivered=500_000),
        }
        assert aggregate_throughput_bps(stats, SECOND, [1]) == pytest.approx(
            500_000
        )

    def test_duration_scaling(self):
        stats = {0: stats_with(bits_delivered=1_000_000)}
        assert aggregate_throughput_bps(stats, 2 * SECOND) == pytest.approx(
            500_000
        )

    def test_per_node_vector(self):
        stats = {
            0: stats_with(bits_delivered=100),
            1: stats_with(bits_delivered=300),
        }
        assert per_node_throughput_bps(stats, SECOND, [0, 1]) == [
            pytest.approx(100),
            pytest.approx(300),
        ]

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            aggregate_throughput_bps({0: MacStats()}, 0)
        with pytest.raises(ValueError):
            per_node_throughput_bps({0: MacStats()}, -5)


class TestDelay:
    def test_mean_over_all_packets(self):
        stats = {
            0: stats_with(delays_ns=[SECOND, 3 * SECOND]),
            1: stats_with(delays_ns=[2 * SECOND]),
        }
        assert mean_delay_seconds(stats) == pytest.approx(2.0)

    def test_weighted_by_packet_not_node(self):
        # Node 0 has many fast packets; node 1 one slow packet.
        stats = {
            0: stats_with(delays_ns=[SECOND] * 9),
            1: stats_with(delays_ns=[11 * SECOND]),
        }
        assert mean_delay_seconds(stats) == pytest.approx(2.0)

    def test_empty_is_zero(self):
        assert mean_delay_seconds({0: MacStats()}) == 0.0


class TestCollisionRatio:
    def test_pooled_ratio(self):
        stats = {
            0: stats_with(ack_timeouts=2, packets_delivered=8),
            1: stats_with(ack_timeouts=0, packets_delivered=10),
        }
        assert aggregate_collision_ratio(stats) == pytest.approx(2 / 20)

    def test_no_data_stage_is_zero(self):
        assert aggregate_collision_ratio({0: MacStats()}) == 0.0

    def test_per_node_property(self):
        s = stats_with(ack_timeouts=3, packets_delivered=7)
        assert s.collision_ratio == pytest.approx(0.3)
        assert s.handshakes_reaching_data == 10


class TestMacStatsMerge:
    def test_merge_accumulates(self):
        a = stats_with(packets_delivered=3, bits_delivered=300, delays_ns=[1, 2])
        b = stats_with(packets_delivered=2, bits_delivered=200, delays_ns=[3])
        a.merge(b)
        assert a.packets_delivered == 5
        assert a.bits_delivered == 500
        assert a.delays_ns == [1, 2, 3]

    def test_record_delivery(self):
        s = MacStats()
        s.record_delivery(1000, 5_000)
        assert s.packets_delivered == 1
        assert s.bits_delivered == 1000
        assert s.mean_delay_ns == 5_000

    def test_mean_delay_empty(self):
        assert MacStats().mean_delay_ns == 0.0


class TestSummarize:
    def test_mean_min_max(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.minimum == 1.0
        assert s.maximum == 3.0
        assert s.count == 3

    def test_std(self):
        s = summarize([2.0, 4.0])
        assert s.std == pytest.approx(1.0)

    def test_single_sample(self):
        s = summarize([5.0])
        assert s.mean == s.minimum == s.maximum == 5.0
        assert s.std == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    @pytest.mark.parametrize(
        ("value", "count"),
        [(0.1, 3), (0.2, 6), (0.7, 8), (0.9, 7), (1.1, 9)],
    )
    def test_constant_replicates(self, value, count):
        """Equal samples whose float mean rounds outside [min, max]
        summarize to the sample itself instead of raising."""
        assert sum([value] * count) / count != value
        s = summarize([value] * count)
        assert s.mean == s.minimum == s.maximum == value
        assert s.std == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicateSummary(mean=5.0, minimum=1.0, maximum=4.0, std=0.0, count=2)
        with pytest.raises(ValueError):
            ReplicateSummary(mean=2.0, minimum=1.0, maximum=4.0, std=0.0, count=0)
