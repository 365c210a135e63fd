"""Persistence for experiment results.

Benches and long campaigns want artifacts: this module round-trips the
simulation grid (``CellResult`` lists) and the analytical Fig. 5 rows
through JSON, and exports flat CSVs for external plotting.  Only
summary-level data is stored (per-replicate metrics, not event traces).

Two schema-versioned JSON formats live here:

* ``repro-grid-v1`` — one file for a whole grid, flattened to one
  record per replicate (:func:`save_grid_json`);
* ``repro-cell-v1`` — one file per grid cell, the unit the campaign
  result store persists and resumes from (:func:`save_cell_json`).
  Values survive the round-trip exactly (ints, and floats via
  ``repr``-exact JSON), so a resumed campaign reports byte-identical
  metrics to the run that produced the artifact.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import pathlib
from typing import TYPE_CHECKING, Sequence

from .campaign import CellResult
from .dispatch.registry import resolve_study

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime dependency
    from .fig5 import Fig5Row

__all__ = [
    "grid_to_records",
    "save_grid_json",
    "load_grid_records",
    "save_grid_csv",
    "save_fig5_csv",
    "cell_to_payload",
    "cell_from_payload",
    "save_cell_json",
    "load_cell_json",
]

#: The SimulationResult properties exported per replicate.
_METRICS = (
    "inner_throughput_bps",
    "inner_mean_delay_s",
    "inner_collision_ratio",
    "inner_fairness",
    "inner_packets_delivered",
)


def grid_to_records(cells: Sequence[CellResult]) -> list[dict]:
    """Flatten grid cells into one record per replicate."""
    records = []
    for cell in cells:
        for replicate, result in enumerate(cell.results):
            record = {
                "n": cell.n,
                "scheme": cell.scheme,
                "beamwidth_deg": cell.beamwidth_deg,
                "replicate": replicate,
                "duration_ns": result.duration_ns,
            }
            for metric in _METRICS:
                record[metric] = getattr(result, metric)
            records.append(record)
    return records


def save_grid_json(cells: Sequence[CellResult], path: str | pathlib.Path) -> None:
    """Write the flattened grid to a JSON file."""
    payload = {"format": "repro-grid-v1", "records": grid_to_records(cells)}
    pathlib.Path(path).write_text(json.dumps(payload, indent=2))


def load_grid_records(path: str | pathlib.Path) -> list[dict]:
    """Read records written by :func:`save_grid_json`."""
    payload = json.loads(pathlib.Path(path).read_text())
    if payload.get("format") != "repro-grid-v1":
        raise ValueError(
            f"{path}: not a repro grid file (format={payload.get('format')!r})"
        )
    return payload["records"]


def save_grid_csv(cells: Sequence[CellResult], path: str | pathlib.Path) -> None:
    """Write the flattened grid to a CSV file."""
    records = grid_to_records(cells)
    if not records:
        raise ValueError("cannot write an empty grid")
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(records[0]))
        writer.writeheader()
        writer.writerows(records)


#: Schema tag for per-cell campaign artifacts.
CELL_FORMAT = "repro-cell-v1"


def cell_to_payload(cell: CellResult) -> dict:
    """The JSON-serializable form of one grid cell.

    The single-hop study's cells omit the ``"kind"`` key (so artifacts
    written before the multi-hop subsystem stay loadable unchanged);
    other replicate classes declare a ``kind`` tag, their study's tag,
    that is stored and resolved through the study table at load time.
    """
    kinds = sorted({getattr(r, "kind", "sim") for r in cell.results})
    if len(kinds) > 1:
        raise ValueError(f"cell mixes replicate kinds: {kinds}")
    payload = {
        "format": CELL_FORMAT,
        "n": cell.n,
        "scheme": cell.scheme,
        "beamwidth_deg": cell.beamwidth_deg,
        "replicates": [dataclasses.asdict(r) for r in cell.results],
    }
    if kinds and kinds[0] != "sim":
        payload["kind"] = kinds[0]
    return payload


def cell_from_payload(payload: dict) -> CellResult:
    """Rebuild a :class:`CellResult` from :func:`cell_to_payload` output."""
    if payload.get("format") != CELL_FORMAT:
        raise ValueError(
            f"not a repro cell payload (format={payload.get('format')!r})"
        )
    replicate_cls = resolve_study(payload.get("kind", "sim")).replicate_cls
    return CellResult(
        n=payload["n"],
        scheme=payload["scheme"],
        beamwidth_deg=payload["beamwidth_deg"],
        results=tuple(
            replicate_cls.from_record(record) for record in payload["replicates"]
        ),
    )


def save_cell_json(cell: CellResult, path: str | pathlib.Path) -> None:
    """Write one cell's replicate metrics to a JSON artifact."""
    pathlib.Path(path).write_text(json.dumps(cell_to_payload(cell), indent=2))


def load_cell_json(path: str | pathlib.Path) -> CellResult:
    """Read a cell artifact written by :func:`save_cell_json`."""
    try:
        payload = json.loads(pathlib.Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: corrupt cell artifact ({exc})") from exc
    try:
        return cell_from_payload(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_fig5_csv(rows: Sequence[Fig5Row], path: str | pathlib.Path) -> None:
    """Write Fig. 5 rows (beamwidth x scheme throughputs) to CSV."""
    if not rows:
        raise ValueError("cannot write an empty Fig. 5 table")
    schemes = sorted(rows[0].throughput)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["beamwidth_deg", *schemes])
        for row in rows:
            writer.writerow(
                [row.beamwidth_deg, *(row.throughput[s] for s in schemes)]
            )
