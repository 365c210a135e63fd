"""SINR/capture study: the paper's grid under interference physics.

The paper's unit-disk model makes collisions binary; the
:mod:`repro.phy.reception` subsystem's SINR model makes them a power
contest.  This study asks what that does to the directional-MAC
comparison: the same ``(N, scheme, beamwidth)`` grid is swept once
under the unit-disk baseline and once per capture threshold under
:class:`~repro.phy.reception.SinrCaptureReception`, so the comparison
table shows where capture rescues collisions (and asymmetric shadowed
links hurt) as the beam narrows.

The campaign machinery is reused unchanged — cells are
:class:`~repro.experiments.campaign.CellSpec` work units run by the
single-hop worker :func:`~repro.experiments.campaign.run_cell_spec`,
which takes the reception model from the config and the replicate
class from the study table, so sharded execution, persistence and
resume all apply.  The unit-disk baseline arm *is* the single-hop
study: a plain :class:`~repro.experiments.config.SimStudyConfig`
campaign over the same grid, so its store (manifest and cell
artifacts) is byte-identical to one (the CI equivalence smoke diffs
the cells).  The SINR arms carry ``"kind": "sinr"`` records with the
capture/drop counters.  Stores from when the baseline arm was a
``SinrStudyConfig`` with a reception-model tag field match no config's
fingerprint any more and are refused.

Determinism contract: every replicate is a pure function of
``(config, n, replicate)`` — shadowing draws come from the replicate
seed's registry, so runs are byte-identical whatever their shard
count, and so are resumed ones.
"""

from __future__ import annotations

import dataclasses
import pathlib
from dataclasses import dataclass
from typing import ClassVar, Sequence

from ..metrics.summary import ReplicateSummary, summarize
from ..net.network import SimulationResult
from ..phy.reception import PhyConfig
from .campaign import CampaignProgress, CellResult, run_campaign
from .config import SimStudyConfig

__all__ = [
    "SinrStudyConfig",
    "SinrReplicateMetrics",
    "SinrArmCell",
    "run_sinr_study",
    "summarize_sinr_arm",
    "format_sinr_table",
]


@dataclass(frozen=True)
class SinrStudyConfig(SimStudyConfig):
    """The paper's grid under the SINR/capture reception model.

    Inherits the grid axes, replicate count, duration and seed from
    :class:`~repro.experiments.config.SimStudyConfig`; adds the
    :class:`~repro.phy.reception.PhyConfig` knobs as flat fields so
    every one of them lands in the campaign store's config fingerprint
    (stores refuse to mix knob values).
    """

    tx_power_dbm: float = 20.0
    pathloss_exponent: float = 3.0
    reference_distance_m: float = 1.0
    reference_loss_db: float = 40.0
    shadowing_sigma_db: float = 6.0
    sensitivity_dbm: float = -94.0
    noise_dbm: float = -104.0
    capture_threshold_db: float = 10.0

    def __post_init__(self) -> None:
        super().__post_init__()
        # Fail at config time, not mid-campaign in a worker process:
        # the reception model's own constructor checks the knob ranges.
        # Cheap invariants repeated here.
        if not self.pathloss_exponent > 0:
            raise ValueError(
                f"pathloss exponent must be positive, got {self.pathloss_exponent!r}"
            )
        if not self.reference_distance_m > 0:
            raise ValueError(
                "reference distance must be positive, "
                f"got {self.reference_distance_m!r}"
            )
        if self.shadowing_sigma_db < 0:
            raise ValueError(
                f"shadowing sigma must be >= 0, got {self.shadowing_sigma_db!r}"
            )
        if self.sensitivity_dbm < self.noise_dbm:
            raise ValueError(
                f"sensitivity ({self.sensitivity_dbm} dBm) must not sit below "
                f"the noise floor ({self.noise_dbm} dBm)"
            )

    @property
    def phy_config(self) -> PhyConfig:
        """The per-run reception configuration these fields describe."""
        return PhyConfig(
            model="sinr",
            tx_power_dbm=self.tx_power_dbm,
            pathloss_exponent=self.pathloss_exponent,
            reference_distance_m=self.reference_distance_m,
            reference_loss_db=self.reference_loss_db,
            shadowing_sigma_db=self.shadowing_sigma_db,
            sensitivity_dbm=self.sensitivity_dbm,
            noise_dbm=self.noise_dbm,
            capture_threshold_db=self.capture_threshold_db,
        )


@dataclass(frozen=True)
class SinrReplicateMetrics:
    """One SINR-model replicate: the single-hop metrics plus capture counters.

    Campaign cell artifacts carry these under ``"kind": "sinr"``.
    """

    kind: ClassVar[str] = "sinr"

    replicate: int
    seed: int
    duration_ns: int
    inner_throughput_bps: float
    inner_mean_delay_s: float
    inner_collision_ratio: float
    inner_fairness: float
    inner_packets_delivered: int
    #: Frames delivered despite overlapping interference, all nodes.
    frames_captured: int
    #: Receptions killed mid-air by a later interferer, all nodes.
    frames_sinr_dropped: int

    @classmethod
    def from_result(
        cls, replicate: int, seed: int, result: SimulationResult
    ) -> "SinrReplicateMetrics":
        return cls(
            replicate=replicate,
            seed=seed,
            duration_ns=result.duration_ns,
            inner_throughput_bps=result.inner_throughput_bps,
            inner_mean_delay_s=result.inner_mean_delay_s,
            inner_collision_ratio=result.inner_collision_ratio,
            inner_fairness=result.inner_fairness,
            inner_packets_delivered=result.inner_packets_delivered,
            frames_captured=result.frames_captured,
            frames_sinr_dropped=result.frames_sinr_dropped,
        )

    @classmethod
    def from_record(cls, record: dict) -> "SinrReplicateMetrics":
        """Rebuild from the ``dataclasses.asdict`` JSON form."""
        return cls(**record)


# ----------------------------------------------------------------------
# The study driver and its presentation.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SinrArmCell:
    """Cross-replicate summary of one grid cell in one study arm."""

    #: Capture threshold of the arm in dB, or ``None`` for the
    #: unit-disk baseline.
    capture_db: float | None
    n: int
    scheme: str
    beamwidth_deg: float
    throughput_bps: ReplicateSummary
    #: Capture/drop totals across replicates (both 0 for the baseline).
    frames_captured: int
    frames_sinr_dropped: int


def summarize_sinr_arm(
    cells: Sequence[CellResult], capture_db: float | None
) -> list[SinrArmCell]:
    """Summarize one arm's raw campaign cells for presentation."""
    summary = []
    for cell in cells:
        captured = sum(
            getattr(r, "frames_captured", 0) for r in cell.results
        )
        dropped = sum(
            getattr(r, "frames_sinr_dropped", 0) for r in cell.results
        )
        summary.append(
            SinrArmCell(
                capture_db=capture_db,
                n=cell.n,
                scheme=cell.scheme,
                beamwidth_deg=cell.beamwidth_deg,
                throughput_bps=summarize(cell.metric("inner_throughput_bps")),
                frames_captured=captured,
                frames_sinr_dropped=dropped,
            )
        )
    return summary


def run_sinr_study(
    config: SinrStudyConfig,
    *,
    capture_db_values: Sequence[float] = (3.0, 10.0),
    workers: int | None = 1,
    directory: str | pathlib.Path | None = None,
    progress: CampaignProgress | None = None,
    telemetry: bool = True,
) -> list[SinrArmCell]:
    """Sweep capture threshold x the grid against the unit-disk baseline.

    Runs one campaign per arm — the unit-disk baseline (a plain
    :class:`~repro.experiments.config.SimStudyConfig` over the same
    grid) plus one SINR campaign per entry of ``capture_db_values`` —
    each in its own subdirectory of ``directory`` (``unitdisk/``,
    ``capture-<v>db/``), so every arm resumes independently and no
    store ever mixes models.  Returns the concatenated per-arm
    summaries, baseline first.
    """
    base = pathlib.Path(directory) if directory is not None else None
    baseline = SimStudyConfig(
        **{
            field.name: getattr(config, field.name)
            for field in dataclasses.fields(SimStudyConfig)
        }
    )
    arms: list[tuple[float | None, SimStudyConfig]] = [(None, baseline)]
    for value in capture_db_values:
        arms.append(
            (value, dataclasses.replace(config, capture_threshold_db=value))
        )
    summary: list[SinrArmCell] = []
    for capture_db, arm_cfg in arms:
        name = "unitdisk" if capture_db is None else f"capture-{capture_db:g}db"
        cells = run_campaign(
            arm_cfg,
            workers=workers,
            directory=None if base is None else base / name,
            progress=progress,
            telemetry=telemetry,
        )
        summary.extend(summarize_sinr_arm(cells, capture_db))
    return summary


def format_sinr_table(cells: Sequence[SinrArmCell]) -> str:
    """Aligned text table: arms as columns, (N, scheme, beamwidth) rows.

    Per SINR arm the cell shows mean inner throughput plus the
    capture/mid-air-drop totals — the events the unit-disk model
    cannot express (its column shows throughput only).
    """
    arm_keys = sorted(
        {c.capture_db for c in cells},
        key=lambda v: (v is not None, v if v is not None else 0.0),
    )

    def arm_label(value: float | None) -> str:
        return "unit-disk" if value is None else f"sinr {value:g} dB"

    lines = []
    schemes = sorted({c.scheme for c in cells}, key=str)
    for n in sorted({c.n for c in cells}):
        lines.append(
            f"N = {n}  (inner throughput Mbps; sinr arms: +captured/-dropped)"
        )
        header = "  scheme      beamwidth  " + "  ".join(
            f"{arm_label(a):>24}" for a in arm_keys
        )
        lines.append(header)
        for scheme in schemes:
            beamwidths = sorted(
                {
                    c.beamwidth_deg
                    for c in cells
                    if c.n == n and c.scheme == scheme
                }
            )
            for beamwidth in beamwidths:
                row = [f"  {scheme:<10}  {beamwidth:6.0f}dg "]
                for arm in arm_keys:
                    match = [
                        c
                        for c in cells
                        if c.n == n
                        and c.scheme == scheme
                        and c.beamwidth_deg == beamwidth
                        and c.capture_db == arm
                    ]
                    if not match:
                        row.append(" " * 24)
                        continue
                    cell = match[0]
                    text = f"{cell.throughput_bps.mean / 1e6:6.3f}"
                    if arm is not None:
                        text += (
                            f" +{cell.frames_captured}"
                            f"/-{cell.frames_sinr_dropped}"
                        )
                    row.append(f"{text:>24}")
                lines.append("  ".join(row))
        lines.append("")
    return "\n".join(lines)
