"""The bench harness behind the perf gate: payloads, baselines, CLI."""

import json

import pytest

from repro.obs.bench import (
    BASELINE_FORMAT,
    BENCH_FORMAT,
    _case_network_sinr,
    baseline_from_payload,
    compare_to_baseline,
    main,
    run_suite,
)

# Tiny workloads: these tests exercise plumbing, not performance.
TINY = dict(
    kernel_events=200,
    timer_churn_restarts=200,
    slotsim_slots=200,
    slotsim_batch_slots=10,
    network_sim_seconds=0.01,
)


@pytest.fixture(scope="module")
def payload():
    return run_suite(1, **TINY)


class TestRunSuite:
    def test_payload_shape(self, payload):
        assert payload["format"] == BENCH_FORMAT
        assert payload["calibration_seconds"] > 0
        assert set(payload["cases"]) == {
            "dessim_event_kernel",
            "timer_churn",
            "slotsim_loop",
            "slotsim_batch",
            "network_cell",
            "network_large",
            "network_sinr",
            "mobility_churn",
            "multihop_medium",
            "lint_full_tree",
            "analytic_point",
        }
        for case in payload["cases"].values():
            assert case["count"] > 0
            assert case["wall_seconds"] > 0
            assert case["per_sec"] > 0
            assert case["score"] > 0
            assert case["normalized_wall"] > 0

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            run_suite(0, **TINY)

    def test_sinr_case_times_a_cold_build(self):
        # Repeats rerun one seed; a memo left warm by anything earlier
        # would let the case skip its shadowing draws.
        from repro.dessim.rng import RngRegistry
        from repro.phy import UnitDiskPropagation
        from repro.phy.reception import SinrCaptureReception, sinr

        warm = SinrCaptureReception(
            UnitDiskPropagation(range_m=300.0), RngRegistry(1)
        )
        warm.shadowing_db(0, 1)
        _case_network_sinr(0.001)
        draws = sinr._MEMO.draws_for(1)
        assert draws is not warm._unit_draws
        assert len(sinr._MEMO._maps) == 1


class TestBaseline:
    def test_distills_scores_only(self, payload):
        baseline = baseline_from_payload(payload, tolerance=0.25)
        assert baseline["format"] == BASELINE_FORMAT
        assert baseline["tolerance"] == 0.25
        for name, case in payload["cases"].items():
            assert baseline["cases"][name] == {
                "score": case["score"],
                "normalized_wall": case["normalized_wall"],
            }

    def test_rejects_foreign_payload(self):
        with pytest.raises(ValueError, match="not a bench payload"):
            baseline_from_payload({"format": "nope"})


class TestCompare:
    def test_passes_against_own_baseline(self, payload):
        assert compare_to_baseline(payload, baseline_from_payload(payload)) == []

    def test_fails_when_baseline_tightened(self, payload):
        baseline = baseline_from_payload(payload)
        # Pretend the machine used to be 10x faster: every case regresses.
        for case in baseline["cases"].values():
            case["score"] *= 10
            case["normalized_wall"] /= 10
        failures = compare_to_baseline(payload, baseline)
        assert len(failures) == 2 * len(baseline["cases"])
        assert any("score" in f for f in failures)
        assert any("normalized wall" in f for f in failures)

    def test_missing_case_is_a_failure(self, payload):
        baseline = baseline_from_payload(payload)
        baseline["cases"]["brand_new_case"] = {"score": 1.0, "normalized_wall": 1.0}
        failures = compare_to_baseline(payload, baseline)
        assert failures == ["brand_new_case: missing from the measured suite"]

    def test_rejects_foreign_baseline(self, payload):
        with pytest.raises(ValueError, match="not a bench baseline"):
            compare_to_baseline(payload, {"format": "nope"})

    def test_rejects_silly_tolerance(self, payload):
        baseline = baseline_from_payload(payload)
        with pytest.raises(ValueError, match="tolerance"):
            compare_to_baseline(payload, baseline, tolerance=1.5)


class TestMain:
    ARGS = [
        "--repeats", "1",
        "--kernel-events", "200",
        "--slotsim-slots", "200",
        "--slotsim-batch-slots", "10",
        "--network-sim-seconds", "0.01",
    ]
    # The pass-then-check test needs workloads big enough that timer
    # granularity doesn't dominate, and a wide tolerance so only a
    # broken harness (not scheduler noise) can fail it.
    STABLE_ARGS = [
        "--repeats", "3",
        "--kernel-events", "5000",
        "--slotsim-slots", "1000",
        "--slotsim-batch-slots", "40",
        "--network-sim-seconds", "0.02",
        "--tolerance", "0.9",
    ]

    def test_writes_snapshot_and_baseline_then_gate_passes(self, tmp_path, capsys):
        out = tmp_path / "BENCH_telemetry.json"
        baseline = tmp_path / "baseline.json"
        argv = ["--out", str(out), "--write-baseline", str(baseline), *self.STABLE_ARGS]
        assert main(argv) == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["format"] == BENCH_FORMAT
        assert json.loads(baseline.read_text())["format"] == BASELINE_FORMAT
        # Same process, immediately after: the gate must pass.
        assert main(["--out", str(out), "--check", str(baseline), *self.STABLE_ARGS]) == 0
        assert "perf gate OK" in capsys.readouterr().out

    def test_gate_fails_on_tightened_baseline(self, tmp_path, capsys):
        out = tmp_path / "BENCH_telemetry.json"
        baseline_path = tmp_path / "baseline.json"
        assert main(["--out", str(out), "--write-baseline", str(baseline_path), *self.ARGS]) == 0
        baseline = json.loads(baseline_path.read_text())
        for case in baseline["cases"].values():
            case["score"] *= 1000
        baseline_path.write_text(json.dumps(baseline))
        assert main(["--out", str(out), "--check", str(baseline_path), *self.ARGS]) == 1
        assert "PERF REGRESSION" in capsys.readouterr().err
