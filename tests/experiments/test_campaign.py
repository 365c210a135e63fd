"""Tests for the campaign layer: seeds, store, resume, parallel fan-out."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.dessim import seconds
from repro.experiments import (
    CampaignProgress,
    CampaignStore,
    CellSpec,
    SimStudyConfig,
    cached_topology,
    grid_specs,
    replicate_seed,
    replicate_topology,
    run_campaign,
    run_cell_spec,
    workers_from_environment,
)
from repro.experiments.dispatch import WorkQueue, read_events
from repro.experiments.dispatch.queue import DEFAULT_LEASE_SECONDS
from repro.experiments.io import load_cell_json, save_cell_json


def child_env():
    """The environment for a child interpreter that imports ``repro``."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH", "")) if p
    )
    return env


def tiny_config(**overrides):
    defaults = dict(
        n_values=(3,),
        beamwidths_deg=(30.0,),
        schemes=("ORTS-OCTS", "DRTS-DCTS"),
        topologies=1,
        sim_time_ns=seconds(0.1),
    )
    defaults.update(overrides)
    return SimStudyConfig(**defaults)


class TestReplicateSeed:
    def test_deterministic(self):
        assert replicate_seed(2003, 3, 0) == replicate_seed(2003, 3, 0)

    def test_distinct_within_base(self):
        seeds = {replicate_seed(2003, 3, r) for r in range(50)}
        assert len(seeds) == 50

    def test_adjacent_base_seeds_disjoint(self):
        """Regression: ``base_seed + replicate`` aliased adjacent bases.

        Under the old additive rule, base 42 / replicate 1 and base 43 /
        replicate 0 both seeded their runs with 43 — overlapping
        replicate streams for "independent" studies.  The registry
        derivation must keep the full streams disjoint.
        """
        a = {replicate_seed(42, n, r) for n in (3, 5, 8) for r in range(50)}
        b = {replicate_seed(43, n, r) for n in (3, 5, 8) for r in range(50)}
        assert not a & b

    def test_not_additive(self):
        assert replicate_seed(42, 3, 1) != 42 + 1
        assert replicate_seed(42, 3, 1) != replicate_seed(42, 3, 0) + 1


class TestTopologyDerivation:
    def test_pure_function_matches_runner_cache(self):
        """The per-process memo every runner and shard reads is the same
        derivation as the pure function."""
        config = tiny_config()
        direct = replicate_topology(config.base_seed, 3, 0)
        cached = cached_topology(replicate_topology, config.base_seed, 3, 0)
        assert cached.positions == direct.positions

    def test_runner_cache_shared_across_schemes(self):
        cached_topology.cache_clear()
        run_campaign(tiny_config())
        info = cached_topology.cache_info()
        assert (info.currsize, info.hits) == (1, 1)

    def test_worker_path_equals_serial_path(self):
        """A cell computed alone equals the same cell of a serial grid
        run, whichever run filled the memo first."""
        config = tiny_config(schemes=("ORTS-OCTS",))
        spec = CellSpec(3, "ORTS-OCTS", 30.0, config)
        cached_topology.cache_clear()
        assert run_cell_spec(spec) == run_campaign(config)[0]


class TestCellArtifacts:
    def test_json_roundtrip_exact(self, tmp_path):
        config = tiny_config(schemes=("ORTS-OCTS",), topologies=2)
        cell = run_cell_spec(CellSpec(3, "ORTS-OCTS", 30.0, config))
        path = tmp_path / "cell.json"
        save_cell_json(cell, path)
        assert load_cell_json(path) == cell

    def test_format_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError):
            load_cell_json(path)

    def test_corrupt_artifact_rejected(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"format": "repro-cell-v1", "n": 3,')
        with pytest.raises(ValueError):
            load_cell_json(path)


class TestCampaignStore:
    def test_save_load(self, tmp_path):
        config = tiny_config()
        store = CampaignStore(tmp_path / "camp", config)
        spec = CellSpec(3, "ORTS-OCTS", 30.0, config)
        assert store.load(spec) is None
        cell = run_cell_spec(spec)
        store.save(spec, cell)
        assert store.load(spec) == cell
        assert store.completed_keys() == {spec.key}

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        directory = tmp_path / "camp"
        CampaignStore(directory, tiny_config())
        with pytest.raises(ValueError):
            CampaignStore(directory, tiny_config(topologies=2))

    def test_same_config_reopens(self, tmp_path):
        directory = tmp_path / "camp"
        CampaignStore(directory, tiny_config())
        CampaignStore(directory, tiny_config())  # no error

    def test_rejects_foreign_manifest(self, tmp_path):
        directory = tmp_path / "camp"
        directory.mkdir()
        (directory / "campaign.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError):
            CampaignStore(directory, tiny_config())


class TestCampaignRunner:
    def test_rejects_bad_workers(self, tmp_path):
        with pytest.raises(ValueError):
            run_campaign(tiny_config(), workers=0, directory=tmp_path / "camp")
        assert not (tmp_path / "camp").exists()  # no store pinned

    def test_specs_cover_grid_in_order(self):
        config = tiny_config(n_values=(3, 5), beamwidths_deg=(30.0, 90.0))
        specs = grid_specs(config)
        assert len(specs) == 2 * 2 * 2
        assert specs[0] == CellSpec(3, "ORTS-OCTS", 30.0, config)
        assert specs[-1] == CellSpec(5, "DRTS-DCTS", 90.0, config)

    def test_matches_serial_runner(self):
        config = tiny_config()
        assert run_campaign(config) == [
            run_cell_spec(spec) for spec in grid_specs(config)
        ]

    def test_workers_from_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert workers_from_environment() == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert workers_from_environment() == 3
        config = tiny_config(beamwidths_deg=(30.0, 150.0))  # 4 cells
        directory = tmp_path / "camp"
        assert run_campaign(config, workers=None, directory=directory) == (
            run_campaign(config)
        )
        started = {
            record["shard"]
            for record in read_events(directory / "events.jsonl")
            if record["event"] == "shard-start"
        }
        assert started == {"0", "1", "2"}  # one shard per REPRO_WORKERS
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            run_campaign(tiny_config(), workers=None)

    def test_serial_vs_parallel_identical(self):
        """Acceptance: serial and 4-worker runs of the same config give
        identical per-cell results."""
        config = tiny_config(beamwidths_deg=(30.0, 150.0))  # 4 cells
        serial = run_campaign(config, workers=1)
        parallel = run_campaign(config, workers=4)
        assert serial == parallel

    def test_parallel_store_matches_serial(self, tmp_path):
        config = tiny_config(beamwidths_deg=(30.0, 150.0))
        serial = run_campaign(config, workers=1)
        stored = run_campaign(config, workers=2, directory=tmp_path / "camp")
        assert stored == serial

    def test_resume_skips_completed_cells(self, tmp_path):
        directory = tmp_path / "camp"
        config = tiny_config(beamwidths_deg=(30.0, 150.0))
        first = run_campaign(config, directory=directory)
        artifacts = sorted(directory.glob("cell-*.json"))
        assert len(artifacts) == 4
        # Simulate an interrupted campaign: one cell's artifact missing.
        removed = artifacts[0]
        removed.unlink()
        before = {
            path: path.stat().st_mtime_ns for path in directory.glob("cell-*.json")
        }
        resumed = run_campaign(config, directory=directory)
        assert resumed == first
        # The surviving artifacts were not rewritten...
        after = {path: path.stat().st_mtime_ns for path in before}
        assert after == before
        # ...and the missing cell was recomputed.
        assert removed.exists()

    def test_fully_resumed_campaign_runs_nothing(self, tmp_path, monkeypatch):
        directory = tmp_path / "camp"
        config = tiny_config()
        first = run_campaign(config, directory=directory)

        def boom(*args, **kwargs):
            raise AssertionError("resume must not re-run completed cells")

        monkeypatch.setattr(
            "repro.experiments.campaign.run_cell_spec", boom
        )
        assert run_campaign(config, directory=directory) == first


class TestKilledCampaignResume:
    def test_sigkilled_campaign_resumes(self, tmp_path):
        """Acceptance: kill a 2-worker campaign mid-flight, resume from
        its directory, and get the same results as a fresh serial run —
        with the pre-kill artifacts untouched."""
        directory = tmp_path / "camp"
        script = (
            "from repro.dessim import seconds\n"
            "from repro.experiments import SimStudyConfig, run_campaign\n"
            "config = SimStudyConfig(n_values=(3,),\n"
            "    beamwidths_deg=(30.0, 90.0, 150.0),\n"
            "    schemes=('ORTS-OCTS', 'DRTS-DCTS'),\n"
            "    topologies=1, sim_time_ns=seconds(0.4))\n"
            f"run_campaign(config, workers=2, directory={str(directory)!r})\n"
        )
        # A session of its own, so the kill takes the pool workers with
        # the parent instead of leaving them orphaned.
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=child_env(), start_new_session=True
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if list(directory.glob("cell-*.json")) or proc.poll() is not None:
                    break
                time.sleep(0.02)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # the whole group already exited
                pass
            proc.wait(timeout=60)
        survivors = {
            path: path.stat().st_mtime_ns for path in directory.glob("cell-*.json")
        }
        assert len(survivors) < 6 or proc.returncode == 0

        config = SimStudyConfig(
            n_values=(3,),
            beamwidths_deg=(30.0, 90.0, 150.0),
            schemes=("ORTS-OCTS", "DRTS-DCTS"),
            topologies=1,
            sim_time_ns=seconds(0.4),
        )
        resumed = run_campaign(config, directory=directory)
        assert len(resumed) == 6
        assert len(list(directory.glob("cell-*.json"))) == 6
        # Cells completed before the kill were skipped, not re-run.
        for path, mtime in survivors.items():
            assert path.stat().st_mtime_ns == mtime
        # And the resumed campaign equals a fresh serial one.
        assert resumed == run_campaign(config)


class TestStaleLease:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_dead_owners_lease_does_not_delay_the_campaign(
        self, tmp_path, workers
    ):
        """Regression: a lease left by a crashed process on this host
        blocked its cell until the lease expired (300 s by default).
        An owner whose pid is gone now counts as expired at once."""
        config = tiny_config()
        directory = tmp_path / "camp"
        CampaignStore(directory, config)
        key = grid_specs(config)[0].key
        script = (
            "import json, pathlib, sys\n"
            "from repro.experiments import CampaignStore\n"
            "from repro.experiments.dispatch import WorkQueue\n"
            "from repro.experiments.dispatch.registry import config_from_manifest\n"
            "directory = pathlib.Path(sys.argv[1])\n"
            "manifest = json.loads((directory / 'campaign.json').read_text())\n"
            "config, _ = config_from_manifest(manifest)\n"
            "store = CampaignStore(directory, config)\n"
            "assert WorkQueue(store, shard='0').try_acquire(sys.argv[2])\n"
        )
        subprocess.run(
            [sys.executable, "-c", script, str(directory), key],
            env=child_env(),
            check=True,
            timeout=120,
        )
        queue = WorkQueue(CampaignStore(directory, config), shard="probe")
        orphan = queue.read_lease(key)
        assert orphan is not None and orphan.expires > time.time()

        start = time.monotonic()
        cells = run_campaign(
            config, workers=workers, directory=directory, telemetry=False
        )
        assert time.monotonic() - start < DEFAULT_LEASE_SECONDS / 10
        assert cells == run_campaign(config)
        retries = [
            record
            for record in read_events(directory / "events.jsonl")
            if record["event"] == "cell-retry"
        ]
        assert [(r["key"], r["attempt"]) for r in retries] == [(key, 1)]
        assert list((directory / "leases").glob("*.json")) == []


class TestCampaignProgress:
    def test_reports_skips_and_eta(self):
        ticks = iter(range(0, 100, 10))
        lines = []
        progress = CampaignProgress(
            clock=lambda: float(next(ticks)), echo=lines.append
        )
        config = tiny_config()
        spec_a, spec_b = grid_specs(config)
        progress.start(2)
        progress.cell_done(spec_a, skipped=True)
        progress.cell_done(spec_b, skipped=False)
        assert lines[0] == "campaign: 2 cells"
        assert "cached, skipped" in lines[1]
        assert "[1/2]" in lines[1]
        assert "[2/2]" in lines[2]
        assert "eta 0.0s" in lines[2]

    def test_wired_into_runner(self):
        lines = []
        ticks = iter(range(0, 1000, 1))
        progress = CampaignProgress(
            clock=lambda: float(next(ticks)), echo=lines.append
        )
        run_campaign(tiny_config(), progress=progress)
        assert lines[0] == "campaign: 2 cells"
        assert len(lines) == 3

    def test_one_shard_reports_each_cell_as_it_finishes(self, tmp_path):
        """With one worker the in-process shard relays each completion
        live: every progress line lands before the next cell starts,
        and a resume prints its skipped lines up front."""
        log = []

        def worker(spec, metrics=None, profiler=None):
            log.append(("start", spec.key))
            return run_cell_spec(spec, metrics=metrics, profiler=profiler)

        config = tiny_config()
        directory = tmp_path / "camp"
        progress = CampaignProgress(echo=lambda line: log.append(("line", line)))
        run_campaign(config, directory=directory, progress=progress, worker=worker)
        first, second = (spec.key for spec in grid_specs(config))
        assert [entry[0] for entry in log] == [
            "line", "start", "line", "start", "line",
        ]
        assert log[1] == ("start", first) and "[1/2]" in log[2][1]
        assert log[3] == ("start", second) and "[2/2]" in log[4][1]

        log.clear()
        (directory / f"cell-{second}.json").unlink()
        run_campaign(config, directory=directory, progress=progress, worker=worker)
        assert [entry[0] for entry in log] == ["line", "line", "start", "line"]
        assert "cached, skipped" in log[1][1]
        assert log[2] == ("start", second) and "[2/2]" in log[3][1]

    def test_duplicate_completion_does_not_skew_eta(self):
        """Regression: a lease-race double completion used to advance
        the rate estimate, halving the apparent per-cell cost.  The
        duplicate must neither advance the fraction nor touch the ETA."""
        # The duplicate branch returns before reading the clock, so the
        # tick sequence covers start() and the two real completions.
        clock = iter([0.0, 10.0, 20.0]).__next__
        lines = []
        progress = CampaignProgress(clock=clock, echo=lines.append)
        spec_a, spec_b = grid_specs(
            tiny_config(beamwidths_deg=(30.0, 90.0), schemes=("ORTS-OCTS",))
        )
        progress.start(4)
        progress.cell_done(spec_a, skipped=False)  # t=10: 10s/cell, 3 left
        assert "[1/4]" in lines[1] and "eta 30.0s" in lines[1]
        progress.cell_done(spec_a, skipped=False)  # the losing retry
        assert "duplicate completion" in lines[2]
        assert "[" not in lines[2]  # fraction did not advance
        progress.cell_done(spec_b, skipped=False)  # t=20: still 10s/cell
        assert "[2/4]" in lines[3] and "eta 20.0s" in lines[3]

    def test_retry_lines_are_informational_only(self):
        clock = iter([0.0, 5.0, 10.0]).__next__
        lines = []
        progress = CampaignProgress(clock=clock, echo=lines.append)
        (spec,) = grid_specs(tiny_config(schemes=("ORTS-OCTS",)))
        progress.start(1)
        progress.cell_retried(spec, attempt=2)
        assert "re-queued (attempt 2, lease expired)" in lines[1]
        progress.cell_done(spec, skipped=False)
        assert "[1/1]" in lines[2]  # the retry did not consume a slot
