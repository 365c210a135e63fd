"""Unit-disk reception equivalence pins and SINR study round-trips.

The reception refactor moved the legacy collision logic out of
:class:`~repro.phy.Radio` into :class:`~repro.phy.reception.
UnitDiskReception`.  The pins here were captured on the pre-refactor
tree: byte-identical campaign artifacts (SHA-256 of the cell JSON) and
exact simulation metrics, for both capture settings of the legacy
model.  If any of them moves, the refactor changed physics.  The cell
hashes are checked under both event schedulers: the calendar queue and
the heap oracle (``tests/dessim/heap_simulator.py``).
"""

import dataclasses
import hashlib
import math

import pytest

import repro.net.network as network_module
from repro.dessim import seconds
from repro.experiments import (
    SimStudyConfig,
    SinrStudyConfig,
    replicate_seed,
    replicate_topology,
    run_campaign,
    run_sinr_study,
)
from repro.experiments.io import load_cell_json
from repro.experiments.sinr_study import SinrReplicateMetrics
from repro.net.network import NetworkSimulation
from repro.phy import PhyConfig, PhyParameters

from ..dessim.heap_simulator import ENGINES

#: SHA-256 of each campaign cell artifact for the pinned grid below,
#: captured before the reception subsystem existed.
GOLDEN_CELL_HASHES = {
    "cell-n3-DRTS-DCTS-bw30.json": (
        "d608b8a9cb4a6528d624284d0e173a06109124e233963040b0833f05f6634a2e"
    ),
    "cell-n3-DRTS-DCTS-bw90.json": (
        "692ec4ff67f7d6ee2ae2cabfa983e71c8d2923809396ffc2855aad90635f103c"
    ),
    "cell-n3-ORTS-OCTS-bw30.json": (
        "deb0bd4dae29a160d78c0f2313c9413b4f8060beb4a78ffddbf91a7880ab1492"
    ),
    "cell-n3-ORTS-OCTS-bw90.json": (
        "79358f77a22ee787926bb16dc1b9afc611d7ca2a71347d3ee130fc9540a6f0da"
    ),
}


def pinned_config():
    return SimStudyConfig(
        n_values=(3,),
        beamwidths_deg=(30.0, 90.0),
        schemes=("ORTS-OCTS", "DRTS-DCTS"),
        topologies=1,
        sim_time_ns=seconds(0.2),
    )


def run_pinned(capture_threshold):
    sim = NetworkSimulation(
        replicate_topology(2003, 3, 0),
        "DRTS-OCTS",
        math.radians(90),
        seed=replicate_seed(2003, 3, 0),
        phy_params=PhyParameters(capture_threshold=capture_threshold),
    )
    return sim.run(seconds(0.2))


class TestUnitDiskGoldenPins:
    def test_campaign_artifacts_bit_identical(self, tmp_path, monkeypatch):
        # Serial: the patched scheduler must reach every cell.
        for engine, simulator in ENGINES.items():
            monkeypatch.setattr(network_module, "Simulator", simulator)
            run_campaign(
                pinned_config(),
                workers=1,
                directory=tmp_path / engine,
                telemetry=False,
            )
            hashes = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in (tmp_path / engine).glob("cell-*.json")
            }
            assert hashes == GOLDEN_CELL_HASHES, engine

    def test_no_capture_metrics_exact(self):
        result = run_pinned(None)
        assert result.inner_throughput_bps == 992800.0
        assert result.inner_mean_delay_s == 0.010757764705882354
        assert result.inner_collision_ratio == 0.2608695652173913
        assert result.inner_fairness == 0.3333333333333333
        assert result.inner_packets_delivered == 17
        assert result.frames_captured == 0
        assert result.frames_sinr_dropped == 0

    def test_legacy_capture_metrics_exact(self):
        result = run_pinned(10.0)
        assert result.inner_throughput_bps == 584000.0
        assert result.inner_mean_delay_s == 0.0087753
        assert result.inner_collision_ratio == 0.2857142857142857
        assert result.inner_fairness == 0.3333333333333333
        assert result.inner_packets_delivered == 10

    def test_explicit_phy_config_is_the_default(self):
        implicit = run_pinned(None)
        sim = NetworkSimulation(
            replicate_topology(2003, 3, 0),
            "DRTS-OCTS",
            math.radians(90),
            seed=replicate_seed(2003, 3, 0),
            phy_config=PhyConfig(model="unitdisk"),
        )
        explicit = sim.run(seconds(0.2))
        assert explicit.inner_throughput_bps == implicit.inner_throughput_bps
        assert explicit.inner_mean_delay_s == implicit.inner_mean_delay_s
        assert {n: s.packets_delivered for n, s in explicit.stats.items()} == {
            n: s.packets_delivered for n, s in implicit.stats.items()
        }


def tiny_sinr_config():
    return SinrStudyConfig(
        n_values=(3,),
        beamwidths_deg=(90.0,),
        schemes=("DRTS-OCTS",),
        topologies=1,
        sim_time_ns=seconds(0.2),
    )


class TestSinrStudy:
    def test_unitdisk_arm_matches_plain_campaign_bytes(self, tmp_path):
        cfg = tiny_sinr_config()
        run_sinr_study(
            cfg,
            capture_db_values=(10.0,),
            directory=tmp_path / "sinr",
            telemetry=False,
        )
        plain = dataclasses.replace(
            SimStudyConfig(
                n_values=cfg.n_values,
                beamwidths_deg=cfg.beamwidths_deg,
                schemes=cfg.schemes,
                topologies=cfg.topologies,
                sim_time_ns=cfg.sim_time_ns,
            )
        )
        run_campaign(
            plain, workers=1, directory=tmp_path / "plain", telemetry=False
        )
        arm_cells = sorted((tmp_path / "sinr" / "unitdisk").glob("cell-*.json"))
        plain_cells = sorted((tmp_path / "plain").glob("cell-*.json"))
        assert [p.name for p in arm_cells] == [p.name for p in plain_cells]
        assert arm_cells  # the grid is non-empty
        for arm, ref in zip(arm_cells, plain_cells):
            assert arm.read_bytes() == ref.read_bytes()

    def test_sinr_arm_artifacts_round_trip(self, tmp_path):
        summary = run_sinr_study(
            tiny_sinr_config(),
            capture_db_values=(10.0,),
            directory=tmp_path,
            telemetry=False,
        )
        [artifact] = (tmp_path / "capture-10db").glob("cell-*.json")
        assert b'"kind": "sinr"' in artifact.read_bytes()
        cell = load_cell_json(artifact)
        assert all(isinstance(r, SinrReplicateMetrics) for r in cell.results)
        # The study surfaces the capture physics: this seed both
        # rescues overlapped frames and drops receptions mid-air.
        sinr_arm = [c for c in summary if c.capture_db == 10.0]
        assert sum(c.frames_captured for c in sinr_arm) > 0
        assert sum(c.frames_sinr_dropped for c in sinr_arm) > 0

    def test_resume_is_identical(self, tmp_path):
        first = run_sinr_study(
            tiny_sinr_config(),
            capture_db_values=(10.0,),
            directory=tmp_path,
            telemetry=False,
        )
        resumed = run_sinr_study(
            tiny_sinr_config(),
            capture_db_values=(10.0,),
            directory=tmp_path,
            telemetry=False,
        )
        assert first == resumed

    def test_arm_stores_never_mix(self, tmp_path):
        run_sinr_study(
            tiny_sinr_config(),
            capture_db_values=(3.0,),
            directory=tmp_path,
            telemetry=False,
        )
        # A different capture threshold refuses the 3 dB arm's store.
        with pytest.raises(ValueError, match="refusing to mix"):
            run_campaign(
                dataclasses.replace(
                    tiny_sinr_config(), capture_threshold_db=10.0
                ),
                workers=1,
                directory=tmp_path / "capture-3db",
                telemetry=False,
            )
