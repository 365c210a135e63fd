"""The study table: a config's class picks its worker everywhere.

Regression for the wrong-worker bug: ``run_campaign`` and
``ShardRunner(dir, config)`` without ``worker=`` used to fall back to
the single-hop unit-disk worker for every config class, so a SINR
campaign computed unit-disk cells under a ``"sinr"`` manifest, and a
CLI worker joining that store later wrote real SINR cells beside them.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.dessim import seconds
from repro.experiments import (
    CampaignStore,
    MultihopStudyConfig,
    SimStudyConfig,
    SinrReplicateMetrics,
    SinrStudyConfig,
    SlotStudyConfig,
    grid_specs,
    run_campaign,
    run_cell_spec,
    run_multihop_cell_spec,
    run_sinr_study,
    run_slot_cell_spec,
)
from repro.experiments.dispatch import ShardRunner, study_for


def sim_config():
    return SimStudyConfig(
        n_values=(3,),
        beamwidths_deg=(90.0,),
        schemes=("ORTS-OCTS", "DRTS-OCTS"),
        topologies=1,
        sim_time_ns=seconds(0.05),
    )


def multihop_config():
    return MultihopStudyConfig(
        n_values=(5,),
        beamwidths_deg=(90.0,),
        schemes=("ORTS-OCTS", "DRTS-OCTS"),
        topologies=1,
        sim_time_ns=seconds(0.1),
        base_seed=0,
        rings=2,
    )


def slot_config():
    return SlotStudyConfig(
        n_values=(3,),
        beamwidths_deg=(60.0,),
        schemes=("ORTS-OCTS", "DRTS-OCTS"),
        topologies=2,
        slots=200,
    )


def sinr_config(**overrides):
    return SinrStudyConfig(
        n_values=(3,),
        beamwidths_deg=(90.0,),
        schemes=("ORTS-OCTS", "DRTS-OCTS"),
        topologies=1,
        sim_time_ns=seconds(0.1),
        **overrides,
    )


def sinr_arm_cells(tmp_path):
    """The SINR study's own path: the 10 dB arm of ``run_sinr_study``."""
    run_sinr_study(
        sinr_config(),
        capture_db_values=(10.0,),
        directory=tmp_path / "study",
        telemetry=False,
    )
    arm = sinr_config(capture_threshold_db=10.0)
    store = CampaignStore(tmp_path / "study" / "capture-10db", arm)
    return arm, [store.load(spec) for spec in grid_specs(arm)]


def own_path(family, tmp_path):
    """``(config, cells)`` computed by each study's own worker."""
    if family == "sinr":
        return sinr_arm_cells(tmp_path)
    config, worker = {
        "sim": (sim_config(), run_cell_spec),
        "multihop": (multihop_config(), run_multihop_cell_spec),
        "slotsim": (slot_config(), run_slot_cell_spec),
    }[family]
    return config, [worker(spec) for spec in grid_specs(config)]


FAMILIES = ["sim", "multihop", "slotsim", "sinr"]


class TestDefaultWorker:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_run_campaign_runs_the_studys_worker(self, family, tmp_path):
        config, expected = own_path(family, tmp_path)
        assert run_campaign(config, telemetry=False) == expected

    @pytest.mark.parametrize("family", FAMILIES)
    def test_shard_runner_runs_the_studys_worker(self, family, tmp_path):
        config, expected = own_path(family, tmp_path)
        directory = tmp_path / "shard"
        ShardRunner(directory, config, shard_id="s0", telemetry=False).run()
        store = CampaignStore(directory, config)
        assert [store.load(spec) for spec in grid_specs(config)] == expected

    def test_sinr_cells_carry_sinr_replicates(self):
        (cell,) = run_campaign(
            dataclasses.replace(sinr_config(), schemes=("DRTS-OCTS",)),
            telemetry=False,
        )
        assert all(isinstance(r, SinrReplicateMetrics) for r in cell.results)


class TestOneKindPerStore:
    def test_cli_worker_finishing_a_sinr_store_keeps_one_kind(self, tmp_path):
        """A store started by run_campaign and finished by a CLI worker
        must hold one physics model: every artifact the same kind."""
        directory = tmp_path / "camp"
        run_campaign(sinr_config(), directory=directory, telemetry=False)
        artifacts = sorted(directory.glob("cell-*.json"))
        assert len(artifacts) == 2
        artifacts[0].unlink()  # an interrupted campaign
        argv = ["campaign-worker", "--store", str(directory), "--shard-id", "w0"]
        assert main([*argv, "--no-telemetry"]) == 0
        kinds = {
            json.loads(path.read_text()).get("kind", "sim")
            for path in directory.glob("cell-*.json")
        }
        assert kinds == {"sinr"}


@dataclasses.dataclass(frozen=True)
class UnregisteredConfig(SimStudyConfig):
    extra: int = 0


class TestUnregisteredConfig:
    def test_study_for_names_the_class(self):
        with pytest.raises(ValueError, match="UnregisteredConfig"):
            study_for(UnregisteredConfig())

    def test_run_campaign_refuses_without_worker(self, tmp_path):
        with pytest.raises(ValueError, match="UnregisteredConfig"):
            run_campaign(UnregisteredConfig(), directory=tmp_path / "camp")
        assert not (tmp_path / "camp").exists()  # no store pinned

    def test_shard_runner_refuses_without_worker(self, tmp_path):
        with pytest.raises(ValueError, match="UnregisteredConfig"):
            ShardRunner(tmp_path / "camp", UnregisteredConfig(), shard_id="s0")
        assert not (tmp_path / "camp").exists()

    def test_explicit_worker_still_plugs_in(self):
        config = UnregisteredConfig(
            n_values=(3,),
            beamwidths_deg=(90.0,),
            schemes=("ORTS-OCTS",),
            topologies=1,
            sim_time_ns=seconds(0.05),
        )
        (cell,) = run_campaign(config, worker=run_cell_spec, telemetry=False)
        assert cell.results[0].seed > 0
