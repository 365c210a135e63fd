"""Tests for the multi-hop experiment driver and its campaign plumbing."""

import json

import pytest

from repro.dessim import seconds
from repro.experiments import (
    MultihopReplicateMetrics,
    MultihopStudyConfig,
    SimStudyConfig,
    measure_cell,
    normalize_scheme,
    run_campaign,
    run_multihop_cell_spec,
    summarize_multihop,
)
from repro.experiments.campaign import CellSpec, config_fingerprint
from repro.experiments.io import cell_from_payload, cell_to_payload


def small_config(**overrides) -> MultihopStudyConfig:
    """One cheap connected cell: n=5, rings=2, seed 0 connects on draw 1."""
    defaults = dict(
        n_values=(5,),
        beamwidths_deg=(90.0,),
        schemes=("DRTS-OCTS",),
        topologies=1,
        sim_time_ns=seconds(0.2),
        base_seed=0,
        rings=2,
    )
    defaults.update(overrides)
    return MultihopStudyConfig(**defaults)


def small_spec(**overrides) -> CellSpec:
    cfg = small_config(**overrides)
    return CellSpec(cfg.n_values[0], cfg.schemes[0], cfg.beamwidths_deg[0], cfg)


class TestNormalizeScheme:
    def test_lower_and_underscores(self):
        assert normalize_scheme("drts_octs") == "DRTS-OCTS"
        assert normalize_scheme("ORTS-OCTS") == "ORTS-OCTS"
        assert normalize_scheme(" drts-dcts ") == "DRTS-DCTS"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            normalize_scheme("csma")


class TestMultihopStudyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(router="magic")
        with pytest.raises(ValueError):
            small_config(flow_interval_ns=0)
        with pytest.raises(ValueError):
            small_config(min_flow_hops=0)
        with pytest.raises(ValueError):
            small_config(relay_queue=0)
        with pytest.raises(ValueError):
            small_config(ttl=0)
        with pytest.raises(ValueError):
            small_config(rings=1)

    def test_inherits_base_validation(self):
        with pytest.raises(ValueError):
            small_config(n_values=())

    def test_fingerprint_covers_routing_fields(self):
        base = config_fingerprint(small_config())
        assert config_fingerprint(small_config(router="shortest-path")) != base
        assert config_fingerprint(small_config(ttl=16)) != base
        # And differs from a plain single-hop config of the same grid.
        plain = SimStudyConfig(
            n_values=(5,),
            beamwidths_deg=(90.0,),
            schemes=("DRTS-OCTS",),
            topologies=1,
            sim_time_ns=seconds(0.2),
            base_seed=0,
        )
        assert config_fingerprint(plain) != base


class TestCellWorker:
    def test_deterministic_across_calls(self):
        first = run_multihop_cell_spec(small_spec())
        second = run_multihop_cell_spec(small_spec())
        assert first == second

    def test_telemetry_variant_identical_result(self):
        bare = run_multihop_cell_spec(small_spec())
        observed, record = measure_cell(run_multihop_cell_spec, small_spec())
        assert observed == bare
        assert record["kind"] == "cell"
        assert record["counters"]["route.originated"] > 0

    def test_replicate_carries_flows(self):
        cell = run_multihop_cell_spec(small_spec())
        replicate = cell.results[0]
        assert isinstance(replicate, MultihopReplicateMetrics)
        assert replicate.goodput_bps > 0
        assert len(replicate.flows) > 0
        assert replicate.packets_originated == sum(
            f.packets_sent for f in replicate.flows
        )

    def test_routers_both_deliver(self):
        for router in ("greedy", "shortest-path"):
            cell = run_multihop_cell_spec(small_spec(router=router))
            assert cell.results[0].packets_delivered > 0

    def test_rejects_plain_config(self):
        plain = SimStudyConfig(
            n_values=(5,), beamwidths_deg=(90.0,), schemes=("DRTS-OCTS",),
            topologies=1, sim_time_ns=seconds(0.2), base_seed=0,
        )
        with pytest.raises(TypeError):
            run_multihop_cell_spec(CellSpec(5, "DRTS-OCTS", 90.0, plain))


class TestArtifactRoundTrip:
    def test_payload_kind_and_exact_round_trip(self):
        cell = run_multihop_cell_spec(small_spec())
        payload = json.loads(json.dumps(cell_to_payload(cell)))
        assert payload["kind"] == "multihop"
        assert cell_from_payload(payload) == cell

    def test_single_hop_payload_has_no_kind(self):
        from repro.experiments import run_cell_spec

        plain = SimStudyConfig(
            n_values=(3,), beamwidths_deg=(90.0,), schemes=("DRTS-OCTS",),
            topologies=1, sim_time_ns=seconds(0.1), base_seed=0,
        )
        cell = run_cell_spec(CellSpec(3, "DRTS-OCTS", 90.0, plain))
        payload = cell_to_payload(cell)
        assert "kind" not in payload
        assert cell_from_payload(payload) == cell

    def test_unknown_kind_rejected(self):
        cell = run_multihop_cell_spec(small_spec())
        payload = cell_to_payload(cell)
        payload["kind"] = "quantum"
        with pytest.raises(ValueError):
            cell_from_payload(payload)


class TestCampaignIntegration:
    def test_store_resume_is_exact(self, tmp_path):
        cfg = small_config()
        first = summarize_multihop(run_campaign(cfg, directory=tmp_path))
        artifacts = sorted(p.name for p in tmp_path.glob("cell-*.json"))
        assert artifacts == ["cell-n5-DRTS-OCTS-bw90.json"]
        before = (tmp_path / artifacts[0]).read_bytes()
        second = summarize_multihop(run_campaign(cfg, directory=tmp_path))  # all cached
        assert second == first
        assert (tmp_path / artifacts[0]).read_bytes() == before

    def test_summaries(self):
        cells = summarize_multihop(run_campaign(small_config()))
        assert len(cells) == 1
        summary = cells[0]
        assert summary.scheme == "DRTS-OCTS"
        assert summary.goodput_bps.mean > 0
        assert summary.mean_delay_s.mean > 0
        assert summary.mean_hop_count >= 2
        assert 0 < summary.delivery_ratio <= 1

    def test_summarize_multihop_matches_raw(self):
        raw = run_multihop_cell_spec(small_spec())
        summary = summarize_multihop([raw])[0]
        assert summary.goodput_bps.mean == raw.results[0].goodput_bps
