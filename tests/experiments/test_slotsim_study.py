"""Tests for the slot-model campaign study."""

import dataclasses
import json

import pytest

from repro.experiments import (
    SlotReplicateMetrics,
    SlotStudyConfig,
    format_slotsim_table,
    run_campaign,
    run_slot_cell_spec,
    summarize_slotsim,
)
from repro.experiments.campaign import CellSpec, config_fingerprint
from repro.experiments.io import cell_from_payload, cell_to_payload


def tiny_config(**overrides):
    options = dict(
        n_values=(3,),
        beamwidths_deg=(60.0,),
        schemes=("ORTS-OCTS",),
        topologies=2,
        p=0.05,
        slots=200,
    )
    options.update(overrides)
    return SlotStudyConfig(**options)


class TestConfigValidation:
    def test_defaults_valid(self):
        config = tiny_config()
        assert (config.p, config.slots) == (0.05, 200)

    @pytest.mark.parametrize("overrides", [
        {"p": 0.0},
        {"p": 1.0},
        {"slots": 0},
        {"torus_factor": 2.0},
        {"topologies": 0},
    ])
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            tiny_config(**overrides)

    def test_slot_knobs_change_fingerprint(self):
        base = config_fingerprint(tiny_config())
        assert config_fingerprint(tiny_config(p=0.06)) != base
        assert config_fingerprint(tiny_config(slots=300)) != base


class TestWorker:
    def test_requires_slot_config(self):
        from repro.experiments import SimStudyConfig

        spec = CellSpec(3, "ORTS-OCTS", 60.0, SimStudyConfig(n_values=(3,)))
        with pytest.raises(TypeError):
            run_slot_cell_spec(spec)

    def test_replicates_are_independent_topologies(self):
        cell = run_slot_cell_spec(CellSpec(3, "ORTS-OCTS", 60.0, tiny_config()))
        assert len(cell.results) == 2
        a, b = cell.results
        assert a.seed != b.seed
        assert (a.node_count, a.mean_degree) != (b.node_count, b.mean_degree) or (
            a.initiations != b.initiations
        )

    def test_worker_is_pure(self):
        spec = CellSpec(3, "ORTS-OCTS", 60.0, tiny_config())
        assert run_slot_cell_spec(spec) == run_slot_cell_spec(spec)


class TestArtifacts:
    def test_payload_round_trip(self):
        cell = run_slot_cell_spec(CellSpec(3, "ORTS-OCTS", 60.0, tiny_config()))
        payload = json.loads(json.dumps(cell_to_payload(cell)))
        assert payload["kind"] == "slotsim"
        assert cell_from_payload(payload) == cell

    def test_from_record_restores_integer_duration_keys(self):
        cell = run_slot_cell_spec(
            CellSpec(3, "ORTS-OCTS", 60.0, tiny_config(p=0.2, slots=400))
        )
        record = json.loads(json.dumps(dataclasses.asdict(cell.results[0])))
        restored = SlotReplicateMetrics.from_record(record)
        assert restored == cell.results[0]
        assert all(isinstance(k, int) for k in restored.fail_durations)


class TestStudy:
    def test_serial_run_and_table(self):
        cells = summarize_slotsim(run_campaign(tiny_config(), telemetry=False))
        assert len(cells) == 1
        table = format_slotsim_table(cells)
        assert "N = 3" in table and "ORTS-OCTS" in table

    def test_campaign_store_resume(self, tmp_path):
        config = tiny_config()
        first = run_campaign(config, directory=tmp_path, telemetry=False)
        again = run_campaign(config, directory=tmp_path, telemetry=False)
        assert first == again

    def test_parallel_equals_serial(self):
        config = tiny_config(n_values=(3,), schemes=("ORTS-OCTS", "DRTS-DCTS"))
        serial = run_campaign(config, workers=1, telemetry=False)
        parallel = run_campaign(config, workers=2, telemetry=False)
        assert serial == parallel
