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
    CellResult,
    MultihopStudyConfig,
    ReplicateMetrics,
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
from repro.experiments.dispatch import STUDIES, ShardRunner, resolve_study, study_for
from repro.experiments.dispatch.registry import config_from_manifest
from repro.experiments.io import cell_from_payload, cell_to_payload, load_cell_json


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


CONFIGS = {
    "sim": sim_config,
    "multihop": multihop_config,
    "slotsim": slot_config,
    "sinr": sinr_config,
}


class TestReplicateClassFromTheTable:
    @pytest.mark.parametrize("tag", sorted(STUDIES))
    def test_one_cell_campaign_records_the_rows_class(self, tag, tmp_path):
        """Every row's replicate class is the one declaration of what its
        cells record, and the stored cell round-trips through io."""
        row = resolve_study(tag)
        config = CONFIGS[tag]()
        config = dataclasses.replace(config, schemes=config.schemes[:1])
        directory = tmp_path / "camp"
        (cell,) = run_campaign(config, directory=directory, telemetry=False)
        assert cell.results
        assert {type(r) for r in cell.results} == {row.replicate_cls}
        assert cell_from_payload(cell_to_payload(cell)) == cell
        (artifact,) = directory.glob("cell-*.json")
        assert load_cell_json(artifact) == cell

    def test_old_sinr_store_is_refused(self, tmp_path):
        """Stores from when SINR configs carried a reception-model tag
        field are refused with a ValueError, not a TypeError."""
        store = CampaignStore(tmp_path / "camp", sinr_config())
        manifest = json.loads((store.directory / "campaign.json").read_text())
        manifest["config"]["phy_model"] = "unitdisk"
        with pytest.raises(ValueError, match="SinrStudyConfig"):
            config_from_manifest(manifest)


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
        (spec,) = grid_specs(config)
        (cell,) = run_campaign(config, worker=_plugin_worker, telemetry=False)
        assert cell == _plugin_worker(spec)


def _plugin_worker(spec, metrics=None, profiler=None):
    """A cell worker for a study the table does not know."""
    return CellResult(
        n=spec.n,
        scheme=spec.scheme,
        beamwidth_deg=spec.beamwidth_deg,
        results=(
            ReplicateMetrics(
                replicate=0,
                seed=spec.config.extra + 1,
                duration_ns=spec.config.sim_time_ns,
                inner_throughput_bps=0.5,
                inner_mean_delay_s=0.25,
                inner_collision_ratio=0.0,
                inner_fairness=1.0,
                inner_packets_delivered=0,
            ),
        ),
    )
