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
  campaign machinery, ``"sinr"`` cells).
"""

from .campaign import (
    CampaignProgress,
    CampaignRunner,
    CampaignStore,
    CellResult,
    CellSpec,
    ReplicateMetrics,
    cached_topology,
    cell_telemetry,
    config_fingerprint,
    grid_specs,
    measure_cell,
    replicate_seed,
    replicate_topology,
    run_campaign,
    run_cell_spec,
)
from .dispatch import (
    EventLog,
    ShardReport,
    ShardRunner,
    WorkQueue,
    backoff_seconds,
    follow_events,
    read_events,
    study_tag,
    watch_campaign,
)
from .ablation import (
    Area3SpanRow,
    EngineCheckRow,
    FixedPRow,
    TFailRow,
    format_area3_span_table,
    format_engine_check_table,
    format_fixed_p_table,
    format_tfail_table,
    run_area3_span_ablation,
    run_engine_ablation,
    run_fixed_p_ablation,
    run_tfail_ablation,
)
from .baselines import BaselineRow, format_baseline_table, run_baseline_ladder
from .config import (
    SimStudyConfig,
    from_environment,
    normalize_scheme,
    workers_from_environment,
)
from .extension_schemes import (
    SchemeComparison,
    format_scheme_comparison,
    run_scheme_comparison,
)
from .fig5 import (
    Fig5MeasuredRow,
    Fig5Row,
    format_fig5_measured_table,
    format_fig5_table,
    run_fig5,
    run_fig5_measured,
)
from .load_sweep import LoadPoint, format_load_sweep_table, run_load_sweep
from .mobility_study import (
    MobilityPoint,
    format_mobility_table,
    run_mobility_study,
)
from .multihop import (
    MultihopCell,
    MultihopReplicateMetrics,
    MultihopStudyConfig,
    format_multihop_table,
    multihop_replicate_topology,
    run_multihop_cell_spec,
    summarize_multihop,
)
from .sinr_study import (
    SinrArmCell,
    SinrReplicateMetrics,
    SinrStudyConfig,
    format_sinr_table,
    run_sinr_study,
    summarize_sinr_arm,
)
from .slotsim_study import (
    SlotCell,
    SlotReplicateMetrics,
    SlotStudyConfig,
    format_slotsim_table,
    run_slot_cell_spec,
    summarize_slotsim,
)
from .table1 import Table1Entry, format_table1, table1_entries
from .tables import (
    GRID_STATISTICS,
    GridCell,
    GridStatistic,
    format_grid,
    summarize_grid,
)

__all__ = [
    "SimStudyConfig",
    "from_environment",
    "workers_from_environment",
    "normalize_scheme",
    "CellResult",
    "CellSpec",
    "ReplicateMetrics",
    "CampaignProgress",
    "CampaignRunner",
    "CampaignStore",
    "EventLog",
    "ShardReport",
    "ShardRunner",
    "WorkQueue",
    "backoff_seconds",
    "config_fingerprint",
    "grid_specs",
    "follow_events",
    "read_events",
    "replicate_seed",
    "replicate_topology",
    "cached_topology",
    "run_campaign",
    "run_cell_spec",
    "measure_cell",
    "study_tag",
    "watch_campaign",
    "cell_telemetry",
    "Fig5Row",
    "run_fig5",
    "format_fig5_table",
    "Fig5MeasuredRow",
    "run_fig5_measured",
    "format_fig5_measured_table",
    "SlotCell",
    "SlotReplicateMetrics",
    "SlotStudyConfig",
    "run_slot_cell_spec",
    "summarize_slotsim",
    "format_slotsim_table",
    "SinrArmCell",
    "SinrReplicateMetrics",
    "SinrStudyConfig",
    "run_sinr_study",
    "summarize_sinr_arm",
    "format_sinr_table",
    "MultihopCell",
    "MultihopReplicateMetrics",
    "MultihopStudyConfig",
    "multihop_replicate_topology",
    "run_multihop_cell_spec",
    "summarize_multihop",
    "format_multihop_table",
    "Table1Entry",
    "table1_entries",
    "format_table1",
    "GRID_STATISTICS",
    "GridCell",
    "GridStatistic",
    "summarize_grid",
    "format_grid",
    "LoadPoint",
    "MobilityPoint",
    "run_mobility_study",
    "format_mobility_table",
    "run_load_sweep",
    "format_load_sweep_table",
    "SchemeComparison",
    "run_scheme_comparison",
    "format_scheme_comparison",
    "FixedPRow",
    "run_fixed_p_ablation",
    "TFailRow",
    "run_tfail_ablation",
    "Area3SpanRow",
    "run_area3_span_ablation",
    "EngineCheckRow",
    "run_engine_ablation",
    "format_engine_check_table",
    "BaselineRow",
    "run_baseline_ladder",
    "format_baseline_table",
    "format_fixed_p_table",
    "format_tfail_table",
    "format_area3_span_table",
]
