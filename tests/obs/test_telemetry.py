"""JSONL telemetry: record shape, file round-trip, campaign integration."""

import json

import pytest

from repro.dessim import seconds
from repro.experiments import SimStudyConfig, run_campaign
from repro.experiments.campaign import (
    CampaignStore,
    CellSpec,
    measure_cell,
    run_cell_spec,
)
from repro.obs.telemetry import (
    TELEMETRY_FORMAT,
    append_telemetry,
    read_telemetry,
    summarize_cells,
    telemetry_record,
)


def tiny_config(**overrides) -> SimStudyConfig:
    defaults = dict(
        n_values=(3,),
        beamwidths_deg=(90.0,),
        schemes=("ORTS-OCTS",),
        topologies=1,
        sim_time_ns=seconds(0.05),
    )
    defaults.update(overrides)
    return SimStudyConfig(**defaults)


class TestRecordPrimitives:
    def test_record_carries_format_and_kind(self):
        record = telemetry_record("cell", key="x", n=3)
        assert record["format"] == TELEMETRY_FORMAT
        assert record["kind"] == "cell"
        assert record["n"] == 3

    def test_empty_kind_rejected(self):
        with pytest.raises(ValueError, match="non-empty kind"):
            telemetry_record("")

    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        first = telemetry_record("cell", key="a", wall_seconds=1.5)
        second = telemetry_record("cell", key="b", wall_seconds=0.5)
        append_telemetry(path, first)
        append_telemetry(path, second)
        assert read_telemetry(path) == [first, second]

    def test_append_refuses_untagged_record(self, tmp_path):
        with pytest.raises(ValueError, match="refusing to write"):
            append_telemetry(tmp_path / "t.jsonl", {"kind": "cell"})

    def test_read_rejects_corrupt_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"format": "repro-telemetry-v1", "kind": "cell"}\n{oops\n')
        with pytest.raises(ValueError, match="t.jsonl:2"):
            read_telemetry(path)

    def test_read_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError, match="not a telemetry record"):
            read_telemetry(path)

    def test_lines_are_single_compact_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        append_telemetry(path, telemetry_record("cell", nested={"a": [1, 2]}))
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["nested"] == {"a": [1, 2]}


class TestSummarizeCells:
    def test_totals_and_pooled_rate(self):
        records = [
            telemetry_record("cell", wall_seconds=2.0, events_processed=100),
            telemetry_record("cell", wall_seconds=3.0, events_processed=400),
            telemetry_record("note", wall_seconds=99.0),  # ignored: not a cell
        ]
        summary = summarize_cells(records)
        assert summary["cells"] == 2
        assert summary["wall_seconds"] == 5.0
        assert summary["events_processed"] == 500
        assert summary["events_per_sec"] == 100.0

    def test_empty_is_zeroed(self):
        summary = summarize_cells([])
        assert summary["cells"] == 0
        assert summary["events_per_sec"] == 0.0


class TestCellTelemetry:
    def test_worker_variant_returns_result_and_record(self):
        config = tiny_config()
        spec = CellSpec(3, "ORTS-OCTS", 90.0, config)
        cell, record = measure_cell(run_cell_spec, spec)
        assert cell.n == 3
        assert record["format"] == TELEMETRY_FORMAT
        assert record["kind"] == "cell"
        assert record["key"] == spec.key
        assert record["replicates"] == config.topologies
        assert record["events_processed"] > 0
        assert record["wall_seconds"] > 0
        assert record["events_per_sec"] > 0
        assert set(record["phases"]) >= {"topology gen", "build", "event loop"}
        assert record["counters"]["dessim.events"] == record["events_processed"]
        # JSON-serializable end to end (this is what hits the JSONL file).
        json.dumps(record)


class TestCampaignIntegration:
    def test_campaign_writes_one_line_per_cell_and_merges_manifest(self, tmp_path):
        config = tiny_config(schemes=("ORTS-OCTS", "DRTS-DCTS"))
        results = run_campaign(config, workers=1, directory=tmp_path)
        store = CampaignStore(tmp_path, config)
        records = store.load_telemetry()
        cell_records = [r for r in records if r["kind"] == "cell"]
        assert len(cell_records) == len(results) == 2
        assert {r["key"] for r in cell_records} == {
            "n3-ORTS-OCTS-bw90",
            "n3-DRTS-DCTS-bw90",
        }
        # The one shard that computed them adds its scheduler record.
        assert [r["kind"] for r in records].count("shard") == 1
        assert len(records) == 3
        manifest = json.loads((tmp_path / "campaign.json").read_text())
        assert manifest["telemetry"]["cells"] == 2
        assert manifest["telemetry"]["events_processed"] == sum(
            r["events_processed"] for r in cell_records
        )

    def test_resume_does_not_duplicate_telemetry(self, tmp_path):
        config = tiny_config()
        run_campaign(config, workers=1, directory=tmp_path)
        lines_before = (tmp_path / "telemetry.jsonl").read_text().splitlines()
        resumed = run_campaign(config, workers=1, directory=tmp_path)
        lines_after = (tmp_path / "telemetry.jsonl").read_text().splitlines()
        assert lines_before == lines_after
        assert len(resumed) == 1

    def test_telemetry_off_writes_nothing(self, tmp_path):
        run_campaign(tiny_config(), workers=1, directory=tmp_path, telemetry=False)
        assert not (tmp_path / "telemetry.jsonl").exists()
        manifest = json.loads((tmp_path / "campaign.json").read_text())
        assert "telemetry" not in manifest

    def test_parallel_campaign_telemetry_matches_cell_count(self, tmp_path):
        config = tiny_config(schemes=("ORTS-OCTS", "DRTS-DCTS"))
        run_campaign(config, workers=2, directory=tmp_path)
        store = CampaignStore(tmp_path, config)
        records = store.load_telemetry()
        cell_records = [r for r in records if r["kind"] == "cell"]
        assert {r["key"] for r in cell_records} == {
            "n3-ORTS-OCTS-bw90",
            "n3-DRTS-DCTS-bw90",
        }
        # The sharded path also writes one scheduler-summary record per
        # shard, excluded from the manifest's cell totals.
        shard_records = [r for r in records if r["kind"] == "shard"]
        assert shard_records
        for record in shard_records:
            assert "scheduler" in record
        manifest = json.loads((tmp_path / "campaign.json").read_text())
        assert manifest["telemetry"]["cells"] == 2
