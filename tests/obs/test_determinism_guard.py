"""The determinism guard: observation must never change results.

Telemetry (metrics registry + profiler) is strictly write-only from the
simulation's point of view.  These tests pin that contract by running
the same cell with observation on and off and demanding bit-identical
results — for the dessim network cell down to the serialized JSON
artifact bytes, and for the slotsim engine down to dataclass equality.
"""

import json

from repro.core import PAPER_PARAMETERS
from repro.dessim import seconds
from repro.experiments import SimStudyConfig
from repro.experiments.campaign import CellSpec, measure_cell, run_cell_spec
from repro.experiments.io import cell_to_payload
from repro.obs import MetricsRegistry, PhaseProfiler
from repro.slotsim import BatchSlotModelEngine, SlotModelConfig


def _spec() -> CellSpec:
    config = SimStudyConfig(
        n_values=(3,),
        beamwidths_deg=(90.0,),
        schemes=("ORTS-OCTS",),
        topologies=1,
        sim_time_ns=seconds(0.05),
    )
    return CellSpec(3, "ORTS-OCTS", 90.0, config)


class TestDessimCellGuard:
    def test_metrics_and_profiler_do_not_change_the_cell(self):
        plain = run_cell_spec(_spec())
        observed = run_cell_spec(
            _spec(), metrics=MetricsRegistry(), profiler=PhaseProfiler()
        )
        assert plain == observed

    def test_serialized_artifact_bytes_identical(self):
        # The campaign store persists cell_to_payload JSON; telemetry on
        # vs off must produce the same bytes an artifact diff would see.
        plain = json.dumps(cell_to_payload(run_cell_spec(_spec())), sort_keys=True)
        cell, record = measure_cell(run_cell_spec, _spec())
        observed = json.dumps(cell_to_payload(cell), sort_keys=True)
        assert plain == observed
        assert record["events_processed"] > 0  # observation did happen

    def test_disabled_registry_also_changes_nothing(self):
        plain = run_cell_spec(_spec())
        nulled = run_cell_spec(_spec(), metrics=MetricsRegistry(enabled=False))
        assert plain == nulled


class TestSlotsimGuard:
    def test_harvested_metrics_do_not_change_results(self):
        config = SlotModelConfig(
            params=PAPER_PARAMETERS.with_neighbors(3.0), p=0.05, seed=11
        )
        (plain,) = BatchSlotModelEngine(config).run(2_000)
        metrics = MetricsRegistry()
        (observed,) = BatchSlotModelEngine(config, metrics=metrics).run(2_000)
        assert plain == observed
        # ... and the harvest actually captured the run.
        snap = metrics.snapshot()
        assert snap["counters"]["slotsim.slots"] == 2_000
        assert snap["counters"]["slotsim.initiations"] == plain.initiations
