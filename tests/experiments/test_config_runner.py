"""Tests for experiment configuration and the serial grid run."""

import math

import pytest

from repro.dessim import seconds
from repro.experiments import (
    CellSpec,
    SimStudyConfig,
    cached_topology,
    replicate_topology,
    run_campaign,
    run_cell_spec,
)


def tiny_config(**overrides):
    defaults = dict(
        n_values=(3,),
        beamwidths_deg=(30.0,),
        schemes=("ORTS-OCTS", "DRTS-DCTS"),
        topologies=1,
        sim_time_ns=seconds(0.2),
    )
    defaults.update(overrides)
    return SimStudyConfig(**defaults)


class TestSimStudyConfig:
    def test_defaults_match_paper_grid(self):
        cfg = SimStudyConfig()
        assert cfg.n_values == (3, 5, 8)
        assert cfg.beamwidths_deg == (30.0, 90.0, 150.0)
        assert cfg.schemes == ("ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS")

    def test_validation(self):
        with pytest.raises(ValueError):
            SimStudyConfig(n_values=())
        with pytest.raises(ValueError):
            SimStudyConfig(n_values=(1,))
        with pytest.raises(ValueError):
            SimStudyConfig(beamwidths_deg=(0.0,))
        with pytest.raises(ValueError):
            SimStudyConfig(beamwidths_deg=(400.0,))
        with pytest.raises(ValueError):
            SimStudyConfig(topologies=0)
        with pytest.raises(ValueError):
            SimStudyConfig(sim_time_ns=0)

    def test_rejects_unknown_schemes(self):
        """Regression: a misspelt scheme used to pass the config, so a
        campaign wrote its manifest and first cells before the worker
        raised KeyError — a store pinned to a grid that never completes."""
        with pytest.raises(ValueError, match="drts_octs"):
            SimStudyConfig(schemes=("ORTS-OCTS", "drts_octs"))

    def test_accepts_every_simulatable_scheme(self):
        from repro.mac.policy import POLICIES

        assert SimStudyConfig(schemes=tuple(POLICIES)).schemes == tuple(POLICIES)

    def test_derived_parameter_objects(self):
        cfg = SimStudyConfig(retry_limit=5, capture_threshold=10.0)
        assert cfg.mac_params.retry_limit == 5
        assert cfg.phy_params.capture_threshold == 10.0


def _cell(config, scheme="ORTS-OCTS", beamwidth=30.0):
    return run_cell_spec(CellSpec(3, scheme, beamwidth, config))


class TestSimStudyRunner:
    """The serial in-process grid: ``run_campaign`` with its defaults."""

    def test_topologies_cached_across_schemes(self):
        first = cached_topology(replicate_topology, 2003, 3, 0)
        assert cached_topology(replicate_topology, 2003, 3, 0) is first

    def test_different_replicates_differ(self):
        a = cached_topology(replicate_topology, 2003, 3, 0)
        b = cached_topology(replicate_topology, 2003, 3, 1)
        assert a.positions != b.positions

    def test_run_cell_produces_replicates(self):
        cell = _cell(tiny_config(topologies=2))
        assert len(cell.results) == 2
        assert cell.n == 3
        assert cell.scheme == "ORTS-OCTS"

    def test_run_grid_covers_all_cells(self):
        cells = run_campaign(tiny_config())
        assert len(cells) == 1 * 2 * 1  # n x schemes x beamwidths
        assert {c.scheme for c in cells} == {"ORTS-OCTS", "DRTS-DCTS"}

    def test_metric_extraction(self):
        values = _cell(tiny_config()).metric("inner_throughput_bps")
        assert len(values) == 1
        assert values[0] >= 0

    def test_schemes_compared_on_identical_topologies(self):
        cached_topology.cache_clear()
        run_campaign(tiny_config())
        # Both schemes' cells asked for (n=3, replicate=0): one
        # derivation, then one memo hit.
        info = cached_topology.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestReplicateSeedPlumbing:
    def test_seeds_are_registry_derived(self):
        """Regression: replicate seeds come from the SHA-256 registry
        derivation, not ``base_seed + replicate`` arithmetic."""
        from repro.experiments import replicate_seed

        cfg = tiny_config(topologies=2)
        cell = _cell(cfg)
        assert [r.seed for r in cell.results] == [
            replicate_seed(cfg.base_seed, 3, r) for r in range(2)
        ]
        assert all(
            r.seed != cfg.base_seed + r.replicate for r in cell.results
        )

    def test_adjacent_base_seeds_share_no_replicate_seed(self):
        from repro.experiments import replicate_seed

        a = {replicate_seed(2003, 3, r) for r in range(10)}
        b = {replicate_seed(2004, 3, r) for r in range(10)}
        assert not a & b
