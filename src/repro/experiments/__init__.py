"""Experiment harness: the paper's tables and figures, and the campaigns behind them.

* :mod:`~repro.experiments.fig5` — analytical throughput vs beamwidth,
* :mod:`~repro.experiments.table1` — the DSSS configuration check,
* :mod:`~repro.experiments.tables` — the Section-4 grid statistics
  (Fig. 6 throughput, Fig. 7 delay, collision ratio, fairness), each
  one row of :data:`~repro.experiments.tables.GRID_STATISTICS` over
  the same campaign cells, and the one grid-table printer,
* :mod:`~repro.experiments.ablation` — design-choice ablations,
* :mod:`~repro.experiments.campaign` — parallel, resumable grid
  execution (worker fan-out, per-cell result store, progress/ETA); the
  config's class picks each study's cell worker from the study table in
  :mod:`~repro.experiments.dispatch.registry`, so every study runs as
  ``run_campaign(config)`` followed by its summarizer,
* :mod:`~repro.experiments.multihop` — end-to-end multi-hop study over
  the routing subsystem (same campaign machinery, ``"multihop"`` cells),
* :mod:`~repro.experiments.slotsim_study` — slot-model Monte-Carlo
  study with engine selection (same campaign machinery, ``"slotsim"``
  cells),
* :mod:`~repro.experiments.sinr_study` — SINR/capture reception study
  sweeping capture threshold against the unit-disk baseline (same
  campaign machinery, ``"sinr"`` cells; the baseline arm is a plain
  ``"sim"`` campaign).

Every name below resolves on first access (PEP 562), importing only
the submodule that defines it: ``from repro.experiments.campaign import
run_campaign`` loads the campaign layer without the analytic figures,
the slot model or their scipy-backed core.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Submodule -> the names this package re-exports from it.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "config": (
        "SimStudyConfig", "normalize_scheme", "workers_from_environment",
    ),
    "campaign": (
        "CampaignProgress", "CampaignStore", "CellResult", "CellSpec",
        "ReplicateMetrics", "cached_topology", "cell_telemetry", "config_fingerprint",
        "grid_specs", "measure_cell", "replicate_seed", "replicate_topology",
        "run_campaign", "run_cell_spec",
    ),
    "dispatch": (
        "EventLog", "ShardReport", "ShardRunner", "WorkQueue", "backoff_seconds",
        "follow_events", "read_events", "study_tag", "watch_campaign",
    ),
    "tables": (
        "GRID_STATISTICS", "GridCell", "GridStatistic", "format_grid", "summarize_grid",
    ),
    "fig5": (
        "Fig5MeasuredRow", "Fig5Row", "format_fig5_measured_table", "format_fig5_table",
        "run_fig5", "run_fig5_measured",
    ),
    "table1": ("Table1Entry", "format_table1", "table1_entries"),
    "multihop": (
        "MultihopCell", "MultihopReplicateMetrics", "MultihopStudyConfig",
        "format_multihop_table", "multihop_replicate_topology",
        "run_multihop_cell_spec", "summarize_multihop",
    ),
    "slotsim_study": (
        "SlotCell", "SlotReplicateMetrics", "SlotStudyConfig", "format_slotsim_table",
        "run_slot_cell_spec", "summarize_slotsim",
    ),
    "sinr_study": (
        "SinrArmCell", "SinrReplicateMetrics", "SinrStudyConfig", "format_sinr_table",
        "run_sinr_study", "summarize_sinr_arm",
    ),
    "ablation": (
        "Area3SpanRow", "FixedPRow", "TFailRow", "format_area3_span_table",
        "format_fixed_p_table", "format_tfail_table", "run_area3_span_ablation",
        "run_fixed_p_ablation", "run_tfail_ablation",
    ),
    "baselines": ("BaselineRow", "format_baseline_table", "run_baseline_ladder"),
    "extension_schemes": (
        "SchemeComparison", "format_scheme_comparison", "run_scheme_comparison",
    ),
    "load_sweep": ("LoadPoint", "format_load_sweep_table", "run_load_sweep"),
    "mobility_study": ("MobilityPoint", "format_mobility_table", "run_mobility_study"),
}

#: Exported name -> the submodule that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str) -> Any:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
