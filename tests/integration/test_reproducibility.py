"""End-to-end reproducibility: identical configs give identical results."""

from repro.dessim import seconds
from repro.experiments import SimStudyConfig, run_campaign
from repro.experiments.io import grid_to_records


def tiny_config():
    return SimStudyConfig(
        n_values=(3,),
        beamwidths_deg=(30.0,),
        schemes=("DRTS-DCTS",),
        topologies=2,
        sim_time_ns=seconds(0.3),
    )


class TestGridReproducibility:
    def test_identical_runs_identical_records(self):
        first = grid_to_records(run_campaign(tiny_config()))
        second = grid_to_records(run_campaign(tiny_config()))
        assert first == second

    def test_base_seed_changes_results(self):
        base = tiny_config()
        shifted = SimStudyConfig(
            n_values=base.n_values,
            beamwidths_deg=base.beamwidths_deg,
            schemes=base.schemes,
            topologies=base.topologies,
            sim_time_ns=base.sim_time_ns,
            base_seed=base.base_seed + 1,
        )
        a = grid_to_records(run_campaign(base))
        b = grid_to_records(run_campaign(shifted))
        assert a != b

    def test_slotsim_reproducible(self):
        from repro.core import PAPER_PARAMETERS
        from repro.slotsim import BatchSlotModelEngine, SlotModelConfig

        config = SlotModelConfig(
            params=PAPER_PARAMETERS.with_neighbors(3.0), p=0.03, seed=17
        )
        (a,) = BatchSlotModelEngine(config).run(5_000)
        (b,) = BatchSlotModelEngine(config).run(5_000)
        assert a.successes == b.successes
        assert a.fail_durations == b.fail_durations

    def test_analytical_is_pure(self):
        import math

        from repro.core import PAPER_PARAMETERS, DrtsDcts, maximize_throughput

        params = PAPER_PARAMETERS.with_beamwidth(math.radians(45))
        a = maximize_throughput(DrtsDcts(params))
        b = maximize_throughput(DrtsDcts(params))
        assert a == b
