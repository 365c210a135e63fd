"""Shared configuration for the benchmark harness.

The simulation grid is expensive, so it is computed once per pytest
session and shared by the Fig. 6 / Fig. 7 / collision-ratio / fairness
benches (they are different summaries of the same runs — exactly as in
the paper, where one simulation campaign produced every Section-4
number).

Defaults are laptop-sized; scale up toward the paper's campaign with
``REPRO_*`` variables:
``REPRO_TOPOLOGIES=50 REPRO_SIM_SECONDS=10 REPRO_N_VALUES=3,5,8
REPRO_BEAMWIDTHS_DEG=30,90,150 pytest benchmarks/ --benchmark-only``.
"""

import os

import pytest

from repro.dessim import seconds
from repro.experiments import SimStudyConfig, run_campaign


def _env_int(name, default):
    raw = os.environ.get(name)
    return default if raw is None else int(raw)


def _env_float(name, default):
    raw = os.environ.get(name)
    return default if raw is None else float(raw)


def _env_tuple(name, default, cast):
    raw = os.environ.get(name)
    if raw is None:
        return default
    return tuple(cast(p.strip()) for p in raw.split(",") if p.strip())


def bench_config() -> SimStudyConfig:
    """Bench-sized study configuration (env-overridable)."""
    capture_raw = os.environ.get("REPRO_CAPTURE", "none").strip().lower()
    capture = None if capture_raw in ("", "none", "off") else float(capture_raw)
    return SimStudyConfig(
        n_values=_env_tuple("REPRO_N_VALUES", (3, 8), int),
        beamwidths_deg=_env_tuple("REPRO_BEAMWIDTHS_DEG", (30.0, 150.0), float),
        topologies=_env_int("REPRO_TOPOLOGIES", 2),
        sim_time_ns=seconds(_env_float("REPRO_SIM_SECONDS", 1.0)),
        retry_limit=_env_int("REPRO_RETRY_LIMIT", 7),
        capture_threshold=capture,
    )


@pytest.fixture(scope="session")
def sim_grid():
    """The shared simulation campaign: (config, cells)."""
    config = bench_config()
    return config, run_campaign(config)


def cell_lookup(cells, n, scheme, beamwidth_deg):
    """Find one grid cell; raises if the grid was narrowed by env vars."""
    for cell in cells:
        if (
            cell.n == n
            and cell.scheme == scheme
            and cell.beamwidth_deg == beamwidth_deg
        ):
            return cell
    raise KeyError(f"cell (N={n}, {scheme}, {beamwidth_deg}dg) not in grid")


def mean_metric(cells, n, scheme, beamwidth_deg, metric):
    values = cell_lookup(cells, n, scheme, beamwidth_deg).metric(metric)
    return sum(values) / len(values)
