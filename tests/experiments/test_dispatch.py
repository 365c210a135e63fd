"""Scheduler tests: leases, steals, backoff, events, manifest registry.

Everything here runs single-process with injected clocks — the
concurrency properties (expiry reassignment, double-completion
idempotency) are exercised as deterministic interleavings of the same
primitives the multi-process path uses.  Real crashes are covered by
``test_dispatch_faults.py``.
"""

import json
import os
import time

import pytest

from repro.dessim import seconds
from repro.experiments import (
    CampaignStore,
    SimStudyConfig,
    run_campaign,
)
from repro.experiments.dispatch import (
    EventLog,
    ShardRunner,
    WorkQueue,
    backoff_seconds,
    read_events,
    tail_events,
    watch_campaign,
)
from repro.experiments.dispatch.queue import DEFAULT_LEASE_SECONDS, Lease
from repro.experiments.dispatch.registry import (
    STUDIES,
    config_from_manifest,
    resolve_study,
    study_for,
    study_tag,
)
from repro.experiments.dispatch.shard import grid_specs
from repro.obs import MetricsRegistry


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


class FakeClock:
    """An advanceable epoch clock for lease-expiry tests."""

    def __init__(self, now=1_000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestBackoff:
    def test_fresh_claim_is_zero(self):
        assert backoff_seconds("any-key", 0) == 0.0

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            backoff_seconds("any-key", -1)

    def test_pure_function_of_arguments(self):
        """The whole schedule is reproducible: no host entropy anywhere."""
        schedule = [backoff_seconds("n3-ORTS-OCTS-bw30", a) for a in range(8)]
        again = [backoff_seconds("n3-ORTS-OCTS-bw30", a) for a in range(8)]
        assert schedule == again

    def test_exponential_and_capped(self):
        key = "n3-ORTS-OCTS-bw30"
        delays = [backoff_seconds(key, a) for a in range(1, 16)]
        assert all(b >= a for a, b in zip(delays, delays[1:]))
        # Doubles while under the cap...
        assert delays[1] == pytest.approx(2 * delays[0])
        # ...and saturates at cap * per-key fraction.
        assert delays[-1] == delays[-2] <= 30.0

    def test_per_key_desynchronization(self):
        """Different cells back off by different amounts at the same
        attempt, and the scale stays within [0.5, 1.0] of nominal."""
        keys = [f"n{n}-DRTS-DCTS-bw90" for n in range(3, 11)]
        delays = {key: backoff_seconds(key, 1) for key in keys}
        assert len(set(delays.values())) > 1
        for delay in delays.values():
            assert 0.05 <= delay <= 0.1  # base 0.1, fraction in [0.5, 1]


class TestLeaseRecord:
    def test_json_roundtrip(self):
        lease = Lease(
            key="k", shard="s", acquired=1.0, expires=2.0, attempt=3, nonce="n"
        )
        assert Lease.from_json(lease.to_json()) == lease

    def test_foreign_payload_rejected(self):
        with pytest.raises(ValueError):
            Lease.from_json(json.dumps({"format": "other", "key": "k"}))


class TestWorkQueue:
    def make(self, tmp_path, shard="0", clock=None, metrics=None, **kwargs):
        store = CampaignStore(tmp_path / "camp", tiny_config())
        return store, WorkQueue(
            store,
            shard=shard,
            clock=clock or FakeClock(),
            metrics=metrics,
            **kwargs,
        )

    def test_acquire_then_contend(self, tmp_path):
        clock = FakeClock()
        store, queue_a = self.make(tmp_path, shard="a", clock=clock)
        queue_b = WorkQueue(store, shard="b", clock=clock)
        lease = queue_a.try_acquire("k1")
        assert lease is not None and lease.shard == "a" and lease.attempt == 0
        assert queue_b.try_acquire("k1") is None  # validly leased elsewhere

    def test_release_lets_others_in(self, tmp_path):
        clock = FakeClock()
        store, queue_a = self.make(tmp_path, shard="a", clock=clock)
        queue_b = WorkQueue(store, shard="b", clock=clock)
        assert queue_a.try_acquire("k1") is not None
        queue_a.release("k1")
        taken = queue_b.try_acquire("k1")
        assert taken is not None and taken.shard == "b" and taken.attempt == 0

    def test_completed_cell_never_leased(self, tmp_path):
        store, queue = self.make(tmp_path)
        config = store.config
        spec = grid_specs(config)[0]
        from repro.experiments import run_cell_spec

        store.save(spec, run_cell_spec(spec))
        assert queue.try_acquire(spec.key) is None

    def test_expired_lease_stolen_with_attempt_bump(self, tmp_path):
        clock = FakeClock()
        metrics = MetricsRegistry()
        store, queue_dead = self.make(
            tmp_path, shard="dead", clock=clock, lease_seconds=5.0
        )
        queue_live = WorkQueue(
            store, shard="live", clock=clock, lease_seconds=5.0, metrics=metrics
        )
        assert queue_dead.try_acquire("k1") is not None
        clock.advance(4.0)
        assert queue_live.try_acquire("k1") is None  # not expired yet
        clock.advance(2.0)  # now 6s past acquisition
        stolen = queue_live.try_acquire("k1")
        assert stolen is not None
        assert stolen.shard == "live"
        assert stolen.attempt == 1
        counters = metrics.snapshot()["counters"]
        assert counters["dispatch.lease_expirations"] == 1
        assert counters["dispatch.steals"] == 1
        assert counters["dispatch.leases"] == 1

    def test_corrupt_lease_reads_as_none(self, tmp_path):
        store, queue = self.make(tmp_path)
        queue.lease_path("k1").write_text("not json{")
        assert queue.read_lease("k1") is None

    def test_lease_counter_on_plain_acquire(self, tmp_path):
        metrics = MetricsRegistry()
        store, queue = self.make(tmp_path, metrics=metrics)
        queue.try_acquire("k1")
        assert metrics.snapshot()["counters"]["dispatch.leases"] == 1


class TestAttachedStores:
    def test_rejects_directory_without_manifest(self, tmp_path):
        (tmp_path / "other").mkdir()
        store = CampaignStore(tmp_path / "camp", tiny_config())
        with pytest.raises(ValueError, match="no manifest"):
            WorkQueue(store, shard="0", attached=[tmp_path / "other"])

    def test_rejects_fingerprint_mismatch(self, tmp_path):
        CampaignStore(tmp_path / "other", tiny_config(topologies=2))
        store = CampaignStore(tmp_path / "camp", tiny_config())
        with pytest.raises(ValueError, match="different"):
            WorkQueue(store, shard="0", attached=[tmp_path / "other"])

    def test_import_is_byte_preserving(self, tmp_path):
        config = tiny_config()
        run_campaign(config, directory=tmp_path / "other", telemetry=False)
        store = CampaignStore(tmp_path / "camp", config)
        metrics = MetricsRegistry()
        queue = WorkQueue(
            store, shard="0", metrics=metrics, attached=[tmp_path / "other"]
        )
        key = grid_specs(config)[0].key
        assert queue.import_cell(key) is True
        source = (tmp_path / "other" / f"cell-{key}.json").read_bytes()
        assert store.path_for_key(key).read_bytes() == source
        assert metrics.snapshot()["counters"]["dispatch.dedup_hits"] == 1
        # Idempotent: a second import is a no-op.
        assert queue.import_cell(key) is False

    def test_import_misses_when_attached_lacks_cell(self, tmp_path):
        config = tiny_config()
        CampaignStore(tmp_path / "other", config)  # manifest, no cells
        store = CampaignStore(tmp_path / "camp", config)
        queue = WorkQueue(store, shard="0", attached=[tmp_path / "other"])
        assert queue.import_cell(grid_specs(config)[0].key) is False

    def test_shard_runner_imports_instead_of_computing(self, tmp_path):
        config = tiny_config()
        run_campaign(config, directory=tmp_path / "other", telemetry=False)
        CampaignStore(tmp_path / "camp", config)
        report = ShardRunner(
            tmp_path / "camp",
            shard_id="w0",
            telemetry=False,
            attached=[tmp_path / "other"],
        ).run()
        assert report.imported == len(grid_specs(config))
        assert report.computed == 0


class TestDoubleCompletionIdempotency:
    def test_save_if_absent_keeps_first_artifact(self, tmp_path):
        """Two shards racing one cell leave exactly one artifact with
        the first writer's bytes (which determinism makes identical to
        the second's anyway)."""
        from repro.experiments import run_cell_spec

        config = tiny_config()
        store = CampaignStore(tmp_path / "camp", config)
        spec = grid_specs(config)[0]
        cell = run_cell_spec(spec)
        assert store.save_if_absent(spec, cell) is True
        first = store.path_for(spec).read_bytes()
        mtime = store.path_for(spec).stat().st_mtime_ns
        assert store.save_if_absent(spec, run_cell_spec(spec)) is False
        assert store.path_for(spec).read_bytes() == first
        assert store.path_for(spec).stat().st_mtime_ns == mtime

    def test_recompute_after_steal_is_byte_identical(self, tmp_path):
        """The property that makes lease races harmless: the stolen
        cell's recompute serializes to the same bytes."""
        from repro.experiments import run_cell_spec

        config = tiny_config()
        spec = grid_specs(config)[0]
        store_a = CampaignStore(tmp_path / "a", config)
        store_b = CampaignStore(tmp_path / "b", config)
        store_a.save(spec, run_cell_spec(spec))
        store_b.save(spec, run_cell_spec(spec))
        assert (
            store_a.path_for(spec).read_bytes()
            == store_b.path_for(spec).read_bytes()
        )


class TestLeaseExpiryReassignment:
    def test_survivor_completes_abandoned_cell(self, tmp_path):
        """A cell leased by a shard that never finishes is stolen and
        completed by a survivor once the lease expires."""
        config = tiny_config()
        store = CampaignStore(tmp_path / "camp", config)
        clock = FakeClock()
        dead = WorkQueue(
            store, shard="dead", clock=clock, lease_seconds=5.0
        )
        abandoned = grid_specs(config)[0].key
        assert dead.try_acquire(abandoned) is not None
        clock.advance(10.0)  # the worker is presumed dead

        sleeps = []
        survivor = ShardRunner(
            tmp_path / "camp",
            shard_id="live",
            telemetry=False,
            lease_seconds=5.0,
            clock=clock,
            sleep=sleeps.append,
        )
        report = survivor.run()
        assert report.cells_total == report.computed == 2
        assert report.steals == 1
        assert report.retries == 1
        # The retry honoured the deterministic backoff for that key.
        assert backoff_seconds(abandoned, 1) in sleeps
        events = read_events(tmp_path / "camp" / "events.jsonl")
        retried = [e for e in events if e["event"] == "cell-retry"]
        assert [e["key"] for e in retried] == [abandoned]
        assert retried[0]["attempt"] == 1

    def test_backoff_skips_recompute_when_owner_finished(self, tmp_path):
        """If the presumed-dead owner's artifact lands during the
        backoff, the stealing shard releases and moves on."""
        from repro.experiments import run_cell_spec

        config = tiny_config()
        store = CampaignStore(tmp_path / "camp", config)
        clock = FakeClock()
        dead = WorkQueue(store, shard="dead", clock=clock, lease_seconds=5.0)
        spec = grid_specs(config)[0]
        assert dead.try_acquire(spec.key) is not None
        clock.advance(10.0)

        def slow_owner_finishes(_):
            store.save_if_absent(spec, run_cell_spec(spec))

        survivor = ShardRunner(
            tmp_path / "camp",
            shard_id="live",
            telemetry=False,
            lease_seconds=5.0,
            clock=clock,
            sleep=slow_owner_finishes,
        )
        report = survivor.run()
        assert report.skipped == 1
        assert report.computed == 1  # only the other cell


class TestSingleShardEquivalence:
    def test_manifest_joined_shard_matches_serial_bytes(self, tmp_path):
        """Acceptance: a ShardRunner bootstrapped from the manifest
        alone produces cell artifacts byte-identical to a serial
        run_campaign of the same config."""
        config = tiny_config(beamwidths_deg=(30.0, 90.0))
        run_campaign(
            config, workers=1, directory=tmp_path / "serial", telemetry=False
        )
        CampaignStore(tmp_path / "sharded", config)
        ShardRunner(tmp_path / "sharded", shard_id="w0", telemetry=False).run()
        serial = {
            p.name: p.read_bytes()
            for p in sorted((tmp_path / "serial").glob("cell-*.json"))
        }
        sharded = {
            p.name: p.read_bytes()
            for p in sorted((tmp_path / "sharded").glob("cell-*.json"))
        }
        assert serial == sharded
        manifest = lambda d: (d / "campaign.json").read_bytes()  # noqa: E731
        assert manifest(tmp_path / "serial") == manifest(tmp_path / "sharded")


class TestEventStream:
    def test_per_shard_seq_is_total_and_gap_free(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ticks = FakeClock()
        log_a = EventLog(path, shard="a", clock=ticks)
        log_b = EventLog(path, shard="b", clock=ticks)
        log_a.emit("shard-start", cells=2)
        log_b.emit("shard-start", cells=2)
        log_a.emit("cell-completed", key="k1")
        log_b.emit("cell-completed", key="k2")
        log_a.emit("shard-done")
        events = read_events(path)
        assert [e["seq"] for e in events if e["shard"] == "a"] == [1, 2, 3]
        assert [e["seq"] for e in events if e["shard"] == "b"] == [1, 2]
        # File order is append order.
        assert [e["event"] for e in events] == [
            "shard-start",
            "shard-start",
            "cell-completed",
            "cell-completed",
            "shard-done",
        ]

    def test_torn_and_foreign_lines_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventLog(path, shard="a", clock=FakeClock()).emit("shard-start")
        with open(path, "a") as handle:
            handle.write('{"not": "an event"}\n')
            handle.write('{"event": "cell-completed", "key": "k1"')  # torn
        events = read_events(path)
        assert [e["event"] for e in events] == ["shard-start"]

    def test_empty_event_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            EventLog(tmp_path / "e.jsonl").emit("")

    def test_watch_reports_unique_completions_in_order(self, tmp_path):
        config = tiny_config()
        CampaignStore(tmp_path / "camp", config)
        ShardRunner(tmp_path / "camp", shard_id="w0", telemetry=False).run()
        lines = []
        summary = watch_campaign(
            tmp_path / "camp", follow=False, echo=lines.append
        )
        assert summary.finished
        assert summary.total == summary.completed == 2
        cell_lines = [line for line in lines if line.startswith("[")]
        assert cell_lines[0].startswith("[1/2]")
        assert cell_lines[1].startswith("[2/2]")

    def test_watch_folds_duplicate_completions(self, tmp_path):
        config = tiny_config()
        CampaignStore(tmp_path / "camp", config)
        log = EventLog(
            tmp_path / "camp" / "events.jsonl", shard="a", clock=FakeClock()
        )
        key = grid_specs(config)[0].key
        log.emit("cell-completed", key=key)
        log.emit("cell-completed", key=key)  # the losing race duplicate
        summary = watch_campaign(
            tmp_path / "camp", follow=False, echo=lambda _: None
        )
        assert summary.completed == 1

    def test_watch_requires_a_store(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            watch_campaign(tmp_path, follow=False, echo=lambda _: None)


class TestTailEvents:
    def test_incremental_reads_only_new_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, shard="a", clock=FakeClock())
        log.emit("shard-start")
        events, offset = tail_events(path)
        assert [e["event"] for e in events] == ["shard-start"]
        assert offset == path.stat().st_size
        # Nothing new: no events, offset unchanged.
        assert tail_events(path, offset) == ([], offset)
        log.emit("cell-completed", key="k1")
        events, offset = tail_events(path, offset)
        assert [e["event"] for e in events] == ["cell-completed"]

    def test_torn_tail_not_consumed(self, tmp_path):
        """The offset never advances past a line still being appended,
        so the torn tail is re-read whole once its newline lands."""
        path = tmp_path / "events.jsonl"
        EventLog(path, shard="a", clock=FakeClock()).emit("shard-start")
        _, offset = tail_events(path)
        with open(path, "a") as handle:
            handle.write('{"event": "cell-completed", "key": "k1"')
        assert tail_events(path, offset) == ([], offset)
        with open(path, "a") as handle:
            handle.write("}\n")
        events, offset = tail_events(path, offset)
        assert [e["event"] for e in events] == ["cell-completed"]
        assert offset == path.stat().st_size

    def test_missing_file(self, tmp_path):
        assert tail_events(tmp_path / "none.jsonl", 0) == ([], 0)


def _failing_worker(spec, metrics=None, profiler=None):
    """Top-level (picklable) worker that always fails."""
    raise RuntimeError("worker exploded")


class TestWorkerFailure:
    def test_failed_worker_releases_its_lease(self, tmp_path):
        """A worker exception must not park the cell for lease_seconds:
        the shard drops the lease on its way out, so survivors retry
        (or surface the same failure) immediately."""
        config = tiny_config()
        CampaignStore(tmp_path / "camp", config)
        runner = ShardRunner(
            tmp_path / "camp",
            config,
            shard_id="w0",
            telemetry=False,
            worker=_failing_worker,
        )
        with pytest.raises(RuntimeError, match="exploded"):
            runner.run()
        assert list((tmp_path / "camp" / "leases").glob("*.json")) == []

    def test_facade_surfaces_shard_error_without_lease_wait(self, tmp_path):
        """run_campaign's sharded path re-raises a worker failure as
        soon as any shard dies on it, instead of letting survivors idle
        out the (default 300 s) lease before failing."""
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="exploded"):
            run_campaign(
                tiny_config(),
                workers=2,
                directory=tmp_path / "camp",
                telemetry=False,
                worker=_failing_worker,
            )
        assert time.monotonic() - start < DEFAULT_LEASE_SECONDS / 4


class TestAtomicWrites:
    def test_tmp_file_is_writer_unique_and_cleaned_up(self, tmp_path):
        """Concurrent writers (shards double-completing, finishers
        merging the manifest) must never share a temp file: the temp
        name embeds the pid, and nothing is left behind."""
        import repro.experiments.campaign as campaign_mod

        seen = []
        real_replace = os.replace

        def recording_replace(src, dst):
            seen.append(str(src))
            return real_replace(src, dst)

        campaign_mod.os.replace = recording_replace
        try:
            campaign_mod._atomic_write_text(tmp_path / "m.json", "{}")
        finally:
            campaign_mod.os.replace = real_replace
        assert (tmp_path / "m.json").read_text() == "{}"
        assert seen == [str(tmp_path / f"m.json.{os.getpid()}.tmp")]
        assert list(tmp_path.glob("*.tmp")) == []


class TestSummaryMergeOwnership:
    def test_shard_leaves_manifest_merge_to_caller(self, tmp_path):
        """ShardRunner appends telemetry but never merges the manifest
        summary — shards finishing near-simultaneously would race the
        read-modify-write.  Merging is the finisher's step (facade
        parent or CLI worker exit) and stays re-runnable."""
        config = tiny_config()
        CampaignStore(tmp_path / "camp", config)
        ShardRunner(tmp_path / "camp", config, shard_id="w0").run()
        manifest = json.loads((tmp_path / "camp" / "campaign.json").read_text())
        assert "telemetry" not in manifest
        store = CampaignStore(tmp_path / "camp", config)
        summary = store.merge_telemetry_summary()
        assert summary["cells"] == 2
        manifest = json.loads((tmp_path / "camp" / "campaign.json").read_text())
        assert manifest["telemetry"]["cells"] == 2

    def test_cli_worker_merges_on_exit(self, tmp_path):
        from repro.cli import main

        config = tiny_config()
        CampaignStore(tmp_path / "camp", config)
        assert (
            main(
                [
                    "campaign-worker",
                    "--store",
                    str(tmp_path / "camp"),
                    "--shard-id",
                    "w0",
                ]
            )
            == 0
        )
        manifest = json.loads((tmp_path / "camp" / "campaign.json").read_text())
        assert manifest["telemetry"]["cells"] == 2


class TestStudyRegistry:
    def test_tags_cover_registered_studies(self):
        from repro.experiments import (
            MultihopStudyConfig,
            SinrStudyConfig,
            SlotStudyConfig,
        )

        assert study_tag(tiny_config()) == "sim"
        assert study_tag(MultihopStudyConfig()) == "multihop"
        assert study_tag(SlotStudyConfig()) == "slotsim"
        assert study_tag(SinrStudyConfig()) == "sinr"

    def test_campaign_exports_same_tagging(self):
        from repro.experiments import study_tag as exported

        assert exported(tiny_config()) == "sim"

    def test_unknown_tag_points_at_python_api(self):
        with pytest.raises(ValueError, match="ShardRunner"):
            resolve_study("custom-study")

    @pytest.mark.parametrize("tag", sorted(STUDIES))
    def test_row_resolves_to_its_own_tag(self, tag):
        """Every row's named pieces import, its config class tags back
        to the row, and its replicates are stored under the same kind."""
        study = resolve_study(tag)
        assert study.tag == tag
        assert study_tag(study.config_cls()) == tag
        assert study_for(study.config_cls()) is study
        assert study.replicate_cls.kind == tag
        assert callable(study.worker)

    def test_unknown_artifact_kind_rejected(self):
        from repro.experiments.io import cell_from_payload

        payload = {"format": "repro-cell-v1", "kind": "custom-study"}
        with pytest.raises(ValueError, match="unknown study 'custom-study'"):
            cell_from_payload(payload)

    @pytest.mark.parametrize("tag", ["sim", "multihop", "slotsim", "sinr"])
    def test_manifest_roundtrip(self, tag, tmp_path):
        from repro.experiments import (
            MultihopStudyConfig,
            SinrStudyConfig,
            SlotStudyConfig,
        )

        config = {
            "sim": tiny_config(),
            "multihop": MultihopStudyConfig(n_values=(3,), topologies=1),
            "slotsim": SlotStudyConfig(n_values=(3,), topologies=1),
            "sinr": SinrStudyConfig(n_values=(3,), topologies=1),
        }[tag]
        store = CampaignStore(tmp_path / "camp", config)
        manifest = json.loads((store.directory / "campaign.json").read_text())
        assert manifest["study"] == tag
        rebuilt, study = config_from_manifest(manifest)
        assert rebuilt == config
        assert study.tag == tag

    def test_edited_manifest_rejected(self, tmp_path):
        store = CampaignStore(tmp_path / "camp", tiny_config())
        manifest = json.loads((store.directory / "campaign.json").read_text())
        manifest["config"]["topologies"] = 99  # fingerprint now stale
        with pytest.raises(ValueError, match="fingerprint"):
            config_from_manifest(manifest)

    def test_manifest_without_config_rejected(self):
        with pytest.raises(ValueError, match="config"):
            config_from_manifest({"study": "sim"})

    def test_pre_tag_manifests_default_to_sim(self, tmp_path):
        """Stores written before the study tag existed are single-hop
        sims; joining them must keep working."""
        store = CampaignStore(tmp_path / "camp", tiny_config())
        manifest = json.loads((store.directory / "campaign.json").read_text())
        del manifest["study"]
        rebuilt, study = config_from_manifest(manifest)
        assert study.tag == "sim"
        assert rebuilt == tiny_config()


class TestDefaultLease:
    def test_generous_relative_to_cell_compute(self):
        assert DEFAULT_LEASE_SECONDS == 300.0
