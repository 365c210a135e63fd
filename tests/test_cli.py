"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

from .golden_tables import CLI_ARGV, CLI_STDOUT


def assert_golden_stdout(command, capsys):
    """The grid subcommand prints exactly its recorded table."""
    assert main(CLI_ARGV[command]) == 0
    assert capsys.readouterr().out == CLI_STDOUT[command]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_scheme_choices_are_the_analytic_schemes(self):
        # The parser names the schemes without importing the analytic
        # core; the names must still be exactly the core's schemes.
        from repro.core import SCHEME_FACTORIES
        from repro.experiments.config import SCHEMES

        assert sorted(SCHEMES) == sorted(SCHEME_FACTORIES)

    def test_sim_option_parsing(self):
        args = build_parser().parse_args(
            [
                "fig6",
                "--n-values", "3,5",
                "--beamwidths", "30,90",
                "--topologies", "4",
                "--sim-seconds", "0.5",
                "--retry-limit", "9",
                "--capture", "10",
            ]
        )
        assert args.n_values == (3, 5)
        assert args.beamwidths == (30.0, 90.0)
        assert args.topologies == 4
        assert args.capture == 10.0
        assert args.workers is None  # default: fall back to REPRO_WORKERS
        assert args.campaign_dir is None

    def test_campaign_option_parsing(self):
        args = build_parser().parse_args(
            ["fig6", "--workers", "4", "--campaign-dir", "/tmp/camp"]
        )
        assert args.workers == 4
        assert args.campaign_dir == "/tmp/camp"

    def test_multihop_option_parsing(self):
        args = build_parser().parse_args(
            [
                "multihop",
                "--scheme", "drts_octs,orts-octs",
                "--beamwidth", "90,150",
                "--router", "shortest-path",
                "--n-values", "5",
                "--rings", "2",
                "--flow-interval-ms", "20",
            ]
        )
        assert args.scheme == ("drts_octs", "orts-octs")
        assert args.beamwidth == (90.0, 150.0)
        assert args.router == "shortest-path"
        assert args.n_values == (5,)
        assert args.rings == 2
        assert args.flow_interval_ms == 20.0
        assert args.scheme is not None

    def test_multihop_defaults(self):
        args = build_parser().parse_args(["multihop"])
        assert args.scheme is None  # None means all three schemes
        assert args.beamwidth == (30.0, 90.0, 150.0)
        assert args.router == "greedy"

    def test_multihop_rejects_bad_router(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["multihop", "--router", "magic"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "contention window" in out
        assert "NO" not in out  # every parameter matches

    def test_fig5(self, capsys):
        assert main(["fig5", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "DRTS-DCTS" in out
        assert "180" in out

    def test_ablation(self, capsys):
        assert main(["ablation"]) == 0
        out = capsys.readouterr().out
        assert "optimised" in out
        assert "T_fail" in out

    def test_validate_agrees(self, capsys):
        code = main(
            [
                "validate",
                "--scheme", "ORTS-OCTS",
                "--p", "0.05",
                "--samples", "20000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "OK" in out

    def test_fig5_chart(self, capsys):
        assert main(["fig5", "--n", "3", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "o=" in out  # chart legend present

    def test_baselines(self, capsys):
        assert main(["baselines", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "BTMA-ideal" in out
        assert "winner" in out

    def test_topology(self, capsys):
        assert main(["topology", "--n", "3", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "measured" in out
        assert "#" in out

    def test_p0_fixed_point(self, capsys):
        assert main(["p0", "--scheme", "ORTS-OCTS", "--p0", "0.05,0.2"]) == 0
        out = capsys.readouterr().out
        assert "idle-prob" in out
        assert out.count("\n") >= 3

    def test_curve(self, capsys):
        assert main(["curve", "--scheme", "ORTS-OCTS", "--points", "40"]) == 0
        out = capsys.readouterr().out
        assert "peak" in out
        assert "o=ORTS-OCTS" in out

    def test_curve_rejects_bad_pmax(self):
        with pytest.raises(SystemExit):
            main(["curve", "--p-max", "1.5"])

    def test_fidelity_tiny(self, capsys):
        assert main(["fidelity", "--slots", "3000", "--p", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "slot-sim" in out
        assert "DRTS-DCTS" in out

    def test_fig6_tiny(self, capsys):
        assert_golden_stdout("fig6", capsys)

    def test_fig6_campaign_resume(self, tmp_path, capsys):
        argv = [
            "fig6",
            "--n-values", "3",
            "--beamwidths", "90",
            "--topologies", "1",
            "--sim-seconds", "0.2",
            "--campaign-dir", str(tmp_path / "camp"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0  # second run resumes from artifacts
        assert capsys.readouterr().out == first
        assert (tmp_path / "camp" / "campaign.json").exists()

    def test_multihop_tiny(self, capsys):
        assert_golden_stdout("multihop", capsys)

    def test_multihop_campaign_resume(self, tmp_path, capsys):
        argv = [
            "multihop",
            "--scheme", "drts_octs",
            "--beamwidth", "90",
            "--n-values", "5",
            "--rings", "2",
            "--topologies", "1",
            "--sim-seconds", "0.1",
            "--seed", "0",
            "--campaign-dir", str(tmp_path / "camp"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0  # resumes from the multihop-kind artifacts
        assert capsys.readouterr().out == first
        assert (tmp_path / "camp" / "campaign.json").exists()

    def test_fig7_tiny(self, capsys):
        assert_golden_stdout("fig7", capsys)

    def test_collision_tiny(self, capsys):
        assert_golden_stdout("collision", capsys)

    def test_fairness_tiny(self, capsys):
        assert_golden_stdout("fairness", capsys)

    def test_profile_network(self, capsys):
        code = main(
            [
                "profile",
                "--kernel", "network",
                "--n", "3",
                "--sim-seconds", "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "event loop" in out
        assert "events/sec" in out
        assert "unitdisk phy" in out

    def test_profile_network_sinr(self, tmp_path, capsys):
        report = tmp_path / "profile.json"
        code = main(
            [
                "profile",
                "--phy", "sinr",
                "--n", "3",
                "--sim-seconds", "0.01",
                "--json", str(report),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sinr phy" in out
        assert "build" in out
        import json

        payload = json.loads(report.read_text())
        assert payload["phy"] == "sinr"
        assert payload["counters"]["dessim.events"] > 0

    def test_profile_network_by_callback(self, tmp_path, capsys):
        report = tmp_path / "profile.json"
        code = main(
            [
                "profile",
                "--kernel", "network",
                "--n", "3",
                "--sim-seconds", "0.05",
                "--by-callback",
                "--json", str(report),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The per-callback table groups fires by layer and method.
        assert "callback" in out
        assert "mac: " in out
        assert "phy: " in out
        import json

        payload = json.loads(report.read_text())
        callbacks = payload["callbacks"]
        assert any(key.startswith("mac: ") for key in callbacks)
        assert all(
            entry["calls"] > 0 and entry["seconds"] >= 0
            for entry in callbacks.values()
        )
        # The hooked dispatcher must not change what runs: every kernel
        # event is accounted to exactly one callback bucket.
        assert sum(entry["calls"] for entry in callbacks.values()) == int(
            payload["counters"]["dessim.events"]
        )

    def test_profile_by_callback_requires_network_kernel(self):
        with pytest.raises(SystemExit):
            main(["profile", "--kernel", "slotsim", "--by-callback"])

    def test_profile_slotsim_with_json(self, tmp_path, capsys):
        report = tmp_path / "profile.json"
        code = main(
            [
                "profile",
                "--kernel", "slotsim",
                "--slots", "500",
                "--json", str(report),
            ]
        )
        assert code == 0
        assert "slots/sec" in capsys.readouterr().out
        import json

        payload = json.loads(report.read_text())
        assert payload["format"] == "repro-profile-v1"
        assert payload["kernel"] == "slotsim"
        assert "event loop" in payload["phases"]
        assert payload["counters"]["slotsim.slots"] == 500

    def test_profile_slotsim_batch_engine(self, tmp_path, capsys):
        report = tmp_path / "profile.json"
        code = main(
            [
                "profile",
                "--kernel", "slotsim",
                "--engine", "batch",
                "--batch", "3",
                "--slots", "400",
                "--json", str(report),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slotsim kernel (batch)" in out
        payload = json.loads(report.read_text())
        assert payload["engine"] == "batch"
        # One slot count per replicate-slot: slots * batch.
        assert payload["counters"]["slotsim.slots"] == 1200

    def test_profile_batch_flag_requires_batch_engine(self):
        with pytest.raises(SystemExit):
            main(["profile", "--kernel", "slotsim", "--batch", "2"])

    def test_slotsim_study_tiny(self, capsys):
        assert_golden_stdout("slotsim", capsys)

    def test_slotsim_study_scalar_engine(self, capsys):
        code = main(
            [
                "slotsim",
                "--n-values", "3",
                "--beamwidths", "60",
                "--scheme", "orts-octs",
                "--topologies", "1",
                "--slots", "150",
                "--engine", "scalar",
            ]
        )
        assert code == 0
        assert "scalar engine" in capsys.readouterr().out

    def test_fig5_measured(self, capsys):
        code = main(
            [
                "fig5",
                "--measure",
                "--measure-beamwidths", "60",
                "--slots", "300",
                "--replicates", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p_opt" in out
        assert "batch" in out

    def test_ablation_includes_engine_check(self, capsys):
        assert main(["ablation"]) == 0
        out = capsys.readouterr().out
        assert "cross-check" in out
        assert "exact" in out
        assert "MISMATCH" not in out

    def test_ablation_skip_engine_check(self, capsys):
        assert main(["ablation", "--skip-engine-check"]) == 0
        assert "cross-check" not in capsys.readouterr().out


class TestDispatchCommands:
    def test_worker_option_parsing(self):
        args = build_parser().parse_args(
            [
                "campaign-worker",
                "--store", "/tmp/camp",
                "--shard-id", "host-a",
                "--lease-seconds", "5",
                "--poll-seconds", "0.1",
                "--attach", "/tmp/other",
                "--attach", "/tmp/more",
                "--no-telemetry",
            ]
        )
        assert args.store == "/tmp/camp"
        assert args.shard_id == "host-a"
        assert args.lease_seconds == 5.0
        assert args.poll_seconds == 0.1
        assert args.attach == ["/tmp/other", "/tmp/more"]
        assert args.no_telemetry is True

    def test_worker_requires_store_and_shard(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign-worker", "--store", "/tmp/c"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign-worker", "--shard-id", "0"])

    def test_watch_option_parsing(self):
        args = build_parser().parse_args(
            [
                "campaign-watch",
                "--store", "/tmp/camp",
                "--once",
                "--interval", "0.5",
                "--timeout", "30",
            ]
        )
        assert args.store == "/tmp/camp"
        assert args.once is True
        assert args.interval == 0.5
        assert args.timeout == 30.0

    def test_worker_completes_store_and_watch_reports(self, tmp_path, capsys):
        from repro.dessim import seconds
        from repro.experiments import CampaignStore, SimStudyConfig

        config = SimStudyConfig(
            n_values=(3,),
            beamwidths_deg=(90.0,),
            schemes=("ORTS-OCTS", "DRTS-DCTS"),
            topologies=1,
            sim_time_ns=seconds(0.1),
        )
        store_dir = tmp_path / "camp"
        CampaignStore(store_dir, config)
        code = main(
            [
                "campaign-worker",
                "--store", str(store_dir),
                "--shard-id", "w0",
                "--no-telemetry",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "shard w0: 2 computed" in out
        assert len(list(store_dir.glob("cell-*.json"))) == 2

        assert main(["campaign-watch", "--store", str(store_dir), "--once"]) == 0
        watch_out = capsys.readouterr().out
        assert "[2/2]" in watch_out
        assert "2/2 cells" in watch_out

    def test_worker_rejects_directory_without_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            main(
                [
                    "campaign-worker",
                    "--store", str(tmp_path),
                    "--shard-id", "w0",
                ]
            )
