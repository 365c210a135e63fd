"""Tests for the Section-4 grid statistics (Fig. 6/7 etc.) and the
shared grid-table printer."""

import dataclasses

import pytest

from repro.dessim import seconds
from repro.experiments import (
    GRID_STATISTICS,
    GridCell,
    ReplicateMetrics,
    SimStudyConfig,
    format_grid,
    run_campaign,
    summarize_grid,
)
from repro.metrics.summary import ReplicateSummary

from ..golden_tables import SYNTHETIC, SYNTHETIC_GRID


@pytest.fixture(scope="module")
def tiny_cells():
    return run_campaign(
        SimStudyConfig(
            n_values=(3,),
            beamwidths_deg=(90.0,),
            schemes=("ORTS-OCTS",),
            topologies=2,
            sim_time_ns=seconds(0.3),
        )
    )


def grid_table(cells, name):
    """``cells`` summarized and printed as the ``name`` statistic."""
    statistic = GRID_STATISTICS[name]
    summary = summarize_grid(cells, statistic.metric)
    return summary, statistic.format(summary)


class TestFig6:
    def test_cells_and_table(self, tiny_cells):
        cells, text = grid_table(tiny_cells, "fig6")
        assert len(cells) == 1
        cell = cells[0]
        assert cell.n == 3
        assert cell.summary.count == 2
        assert cell.summary.mean > 0
        assert "N = 3" in text
        assert "ORTS-OCTS" in text


class TestFig7:
    def test_cells_and_table(self, tiny_cells):
        cells, text = grid_table(tiny_cells, "fig7")
        assert len(cells) == 1
        assert cells[0].summary.mean > 0
        assert "ms" in text


class TestCollisionRatio:
    def test_cells_and_table(self, tiny_cells):
        cells, text = grid_table(tiny_cells, "collision")
        assert 0.0 <= cells[0].summary.mean <= 1.0
        assert "ACK-timeout" in text


class TestFairness:
    def test_cells_and_table(self, tiny_cells):
        cells, text = grid_table(tiny_cells, "fairness")
        assert 0.0 < cells[0].summary.mean <= 1.0
        assert "Jain" in text


class TestFormatGrid:
    @pytest.mark.parametrize(("name", "scale"), [("fig6", 1.0), ("collision", 4e6)])
    def test_missing_cells_are_blank_padded(self, name, scale):
        """A grid without some (scheme, beamwidth) cells pads each gap
        with the statistic's column width, byte for byte."""
        cells = [
            GridCell(
                n,
                scheme,
                beamwidth,
                ReplicateSummary(
                    mean=mean / scale,
                    minimum=low / scale,
                    maximum=high / scale,
                    std=0.0,
                    count=2,
                ),
            )
            for n, scheme, beamwidth, mean, low, high in SYNTHETIC_GRID
        ]
        statistic = GRID_STATISTICS[name]
        text = format_grid(cells, statistic.heading, statistic.width, statistic.render)
        assert text == SYNTHETIC[name]

    def test_every_statistic_reads_a_replicate_field(self):
        fields = {f.name for f in dataclasses.fields(ReplicateMetrics)}
        for statistic in GRID_STATISTICS.values():
            assert statistic.metric in fields


class TestAblation:
    def test_fixed_p_rows(self):
        from repro.experiments import run_fixed_p_ablation

        rows = run_fixed_p_ablation(n_neighbors=3.0, p_values=(0.02, 0.05))
        assert len(rows) == 3
        for row in rows:
            assert set(row.fixed) == {0.02, 0.05}
            assert row.optimised >= max(row.fixed.values()) - 1e-9

    def test_tfail_rows(self):
        from repro.experiments import run_tfail_ablation

        rows = run_tfail_ablation(n_neighbors=3.0, beamwidths_deg=(30.0,))
        assert len(rows) == 1
        assert rows[0].early_bound > rows[0].paper_bound
        assert rows[0].relative_change > 0
