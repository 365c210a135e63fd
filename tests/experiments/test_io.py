"""Tests for experiment-result persistence."""

import csv
import json
import math

import pytest

from repro.dessim import seconds
from repro.experiments import SimStudyConfig, run_campaign, run_fig5
from repro.experiments.io import (
    grid_to_records,
    load_grid_records,
    save_fig5_csv,
    save_grid_csv,
    save_grid_json,
)


@pytest.fixture(scope="module")
def cells():
    config = SimStudyConfig(
        n_values=(3,),
        beamwidths_deg=(90.0,),
        schemes=("ORTS-OCTS",),
        topologies=2,
        sim_time_ns=seconds(0.2),
    )
    return run_campaign(config)


class TestGridRecords:
    def test_one_record_per_replicate(self, cells):
        records = grid_to_records(cells)
        assert len(records) == 2
        assert {r["replicate"] for r in records} == {0, 1}

    def test_record_fields(self, cells):
        record = grid_to_records(cells)[0]
        assert record["n"] == 3
        assert record["scheme"] == "ORTS-OCTS"
        assert record["beamwidth_deg"] == 90.0
        assert record["inner_throughput_bps"] >= 0
        assert 0 <= record["inner_fairness"] <= 1

    def test_json_roundtrip(self, cells, tmp_path):
        path = tmp_path / "grid.json"
        save_grid_json(cells, path)
        loaded = load_grid_records(path)
        assert loaded == grid_to_records(cells)

    def test_json_format_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other", "records": []}))
        with pytest.raises(ValueError):
            load_grid_records(path)

    def test_csv_export(self, cells, tmp_path):
        path = tmp_path / "grid.csv"
        save_grid_csv(cells, path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert float(rows[0]["inner_throughput_bps"]) >= 0

    def test_empty_csv_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_grid_csv([], tmp_path / "x.csv")


class TestFig5Csv:
    def test_export(self, tmp_path):
        rows = run_fig5(n_neighbors=3.0, beamwidths=[math.radians(30)])
        path = tmp_path / "fig5.csv"
        save_fig5_csv(rows, path)
        with open(path) as handle:
            parsed = list(csv.reader(handle))
        assert parsed[0][0] == "beamwidth_deg"
        assert len(parsed) == 2

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_fig5_csv([], tmp_path / "x.csv")
