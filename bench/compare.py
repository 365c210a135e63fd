#!/usr/bin/env python3
"""Compare the benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT1.json ... PARENTk.json CHANGE1.json ... CHANGEk.json

Each file is the ``--out`` of one ``bench/run.py`` run over every
workload.  The first half of the files are the parent's runs and the
second half the change's, each in the order run; the i-th file of each
half form a pair, so alternate which side runs first.

One row per (workload, end-to-end metric) gives both medians, the
parent's spread (distance between its quartiles, as a share of its
median), the pairs the change won, and a verdict, with the bounds taken
from ``BENCHMARK.json``:

* ``improved`` -- at least 10 pairs, the change won at least 9 in 10 of
  them (ties count for neither), and the medians differ by more than the
  parent's quartile spread;
* ``unresolved`` -- the parent's spread is wider than the bound and not
  every change run reads better than every parent run;
* ``regressed`` -- the change's median is worse by more than the bound;
* ``unchanged`` -- otherwise.

The error rate must not rise.  A workload, or its untraced or traced
pass, that every parent run has but some change run lacks (the child
crashed, or no op completed) counts as regressed.  Every per-layer
count that is not the same in all traced runs, on both sides, is
flagged.  All files must come from runs with the same seed, length and
scale.  The exit code is 1 when anything regressed and 2 when the
files cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
MODES = ("untraced", "traced")
#: Settings that every compared run must share.
SETTINGS = ("seed", "seconds", "scale")


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartiles."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> tuple[str, dict]:
    """The verdict on one metric of one workload, and the numbers behind it."""
    sign = 1.0 if better == "higher" else -1.0
    p_median = statistics.median(parent)
    c_median = statistics.median(change)
    spread = quartile_spread(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = min(len(parent), len(change))
    worse = -sign * (c_median - p_median) / p_median
    if better == "higher":
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    decisive = pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs
    if decisive and abs(c_median - p_median) > spread:
        label = "improved"
    elif spread / p_median > bound and not all_better:
        label = "unresolved"
    elif worse > bound:
        label = "regressed"
    else:
        label = "unchanged"
    return label, {
        "parent": p_median,
        "change": c_median,
        "worse": worse,
        "spread": spread / p_median,
        "wins": wins,
        "pairs": pairs,
    }


def untraced(run: dict, workload: str, metric: str) -> float:
    return run["workloads"][workload]["untraced"]["metrics"][metric]["value"]


def error_rate(runs: list[dict], workload: str) -> float:
    attempted = failed = 0
    for run in runs:
        for mode in run["workloads"][workload].values():
            attempted += mode["attempted"]
            failed += mode["failed"]
    return failed / attempted if attempted else 0.0


def mismatched_settings(runs: list[dict]) -> list[str]:
    """The settings in which the runs differ."""
    return [key for key in SETTINGS if len({run[key] for run in runs}) > 1]


def has_all_modes(run: dict, workload: str) -> bool:
    return all(mode in run["workloads"].get(workload, {}) for mode in MODES)


def compare(
    parents: list[dict], changes: list[dict], spec: dict
) -> tuple[list[str], bool]:
    """Report lines and whether anything regressed."""
    lines = [
        f"{'workload':<16} {'metric':<28} {'parent':>12} {'change':>12} "
        f"{'worse':>8} {'spread':>7} {'wins':>6}  verdict"
    ]
    regressed = False
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        if not all(has_all_modes(run, workload) for run in parents):
            lines.append(f"{workload:<16} missing from a parent run; unresolved")
            continue
        if not all(has_all_modes(run, workload) for run in changes):
            regressed = True
            lines.append(
                f"{workload:<16} {'error_rate':<28} {'':>12} {1.0:>12.4g} "
                f"{'':>8} {'':>7} {'':>6}  regressed (missing from a change run)"
            )
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [untraced(r, workload, name) for r in parents]
            change = [untraced(r, workload, name) for r in changes]
            label, n = verdict(parent, change, metric["better"], metric["bound"])
            regressed |= label == "regressed"
            lines.append(
                f"{workload:<16} {name:<28} {n['parent']:>12.6g} {n['change']:>12.6g} "
                f"{n['worse']:>+8.1%} {n['spread']:>7.1%} "
                f"{n['wins']:>3}/{n['pairs']:<2}  {label}"
            )
        before, after = error_rate(parents, workload), error_rate(changes, workload)
        rose = after > before
        regressed |= rose
        lines.append(
            f"{workload:<16} {'error_rate':<28} {before:>12.4g} {after:>12.4g} "
            f"{'':>8} {'':>7} {'':>6}  {'regressed' if rose else 'unchanged'}"
        )
        for name in counts:
            values = [
                r["workloads"][workload]["traced"]["metrics"][name]["value"]
                for r in parents + changes
            ]
            if len(set(values)) > 1:
                lines.append(f"{workload:<16} {name:<28} COUNT DIFFERS: {values}")
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) < 2 or len(paths) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs = [json.loads(Path(path).read_text()) for path in paths]
    mismatched = mismatched_settings(runs)
    if mismatched:
        print(f"the runs differ in {', '.join(mismatched)}; not compared", file=sys.stderr)
        return 2
    half = len(runs) // 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, regressed = compare(runs[:half], runs[half:], spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
