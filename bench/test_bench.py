"""Tests of the benchmark itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench -q``.
They run each workload at a tiny ``--scale``, so they take about a
minute; they are not part of the tier-1 suite under ``tests/``.
"""

from __future__ import annotations

import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SCALE = "0.05"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


run = _load("run")
compare = _load("compare")


def _bench(*args: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=170,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_emits_exactly_the_declared_metrics(workload, trace):
    result = _bench(
        "--workload", workload, "--seed", "11", "--seconds", "0.5",
        "--trace", trace, "--scale", SCALE,
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("count", [1, 5, 10, 11, 16, 20, 21, 25, 54, 100, 864])
@pytest.mark.parametrize("pct", [0.5, 0.6, 0.8, 0.95, 0.98, 0.999])
def test_tail_percentile_leaves_ten_samples_beyond(count, pct):
    samples = [float(value) for value in range(count)]
    used, value = run.tail_percentile(samples[::-1], pct)
    beyond = sum(1 for sample in samples if sample > value)
    median = statistics.median(samples)
    assert value >= median
    if count > 2 * run.MIN_BEYOND:
        assert beyond >= run.MIN_BEYOND and used <= pct
        # The nominal percentile, or the highest that leaves enough.
        assert used == pct or beyond == run.MIN_BEYOND
    else:
        assert (used, value) == (0.5, median)


def test_a_corrupted_golden_digest_fails_ops(tmp_path):
    scale = float(SCALE)
    run.write_goldens(["paper_grid"], 11, scale, tmp_path)
    workload = run.WORKLOADS["paper_grid"]

    def measure() -> dict:
        return run.measure(workload, 11, 0.3, False, scale, golden_dir=tmp_path)

    clean = measure()
    assert clean["correct"] and clean["failed"] == 0

    golden_path = tmp_path / "seed-11.json"
    golden = json.loads(golden_path.read_text())
    golden["ops"]["paper_grid"][1] = "0" * 64
    golden_path.write_text(json.dumps(golden))
    corrupted = measure()
    assert not corrupted["correct"]
    assert corrupted["failed"] / corrupted["attempted"] > 0


def _runs(values: list[float]) -> list[dict]:
    mode = {"attempted": 10, "failed": 0}
    return [
        {
            "seed": 2003,
            "seconds": 25.0,
            "scale": 1.0,
            "workloads": {
                "paper_grid": {
                    "untraced": {
                        **mode,
                        "metrics": {"ops_per_s": {"value": value, "unit": "ops/s"}},
                    },
                    "traced": {**mode, "metrics": {}},
                }
            },
        }
        for value in values
    ]


_SPEC = {
    "workloads": [{"name": "paper_grid"}],
    "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.1}],
    "per_layer": [],
}


@pytest.mark.parametrize(
    ("parent", "change", "expected"),
    [
        ([10.0] * 5 + [10.2] * 5, [11.0] * 9 + [9.0], "improved"),
        ([10.0] * 5 + [10.2] * 5, [10.1] * 10, "unchanged"),
        ([10.0, 10.1, 10.2], [8.5, 8.6, 8.7], "regressed"),
        ([8.0, 10.0, 12.0, 14.0], [10.0, 11.0, 12.0, 13.0], "unresolved"),
        ([8.0, 10.0, 12.0, 14.0], [15.0, 16.0, 17.0, 18.0], "unchanged"),
    ],
)
def test_compare_verdicts(parent, change, expected):
    label, _ = compare.verdict(parent, change, "higher", 0.1)
    assert label == expected


def _fail_an_op(run: dict) -> None:
    run["workloads"]["paper_grid"]["untraced"]["failed"] = 1


def _drop_workload(run: dict) -> None:
    del run["workloads"]["paper_grid"]


def _keep_traced_only(run: dict) -> None:
    del run["workloads"]["paper_grid"]["untraced"]


@pytest.mark.parametrize("damage", [_fail_an_op, _drop_workload, _keep_traced_only])
def test_compare_counts_a_failed_or_missing_change_run_as_regressed(damage):
    parents, changes = _runs([10.0, 10.0]), _runs([10.0, 10.0])
    damage(changes[1])
    lines, regressed = compare.compare(parents, changes, _SPEC)
    assert regressed
    assert any("error_rate" in line and "regressed" in line for line in lines)


def test_compare_refuses_runs_with_different_settings(tmp_path):
    paths = []
    for index, run_result in enumerate(_runs([10.0, 10.0])):
        run_result["seed"] += index
        path = tmp_path / f"run{index}.json"
        path.write_text(json.dumps(run_result))
        paths.append(str(path))
    assert compare.mismatched_settings(_runs([10.0, 10.0])) == []
    assert compare.main(paths) == 2
