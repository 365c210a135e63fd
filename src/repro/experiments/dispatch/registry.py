"""The study table: one :class:`Study` record per campaign family.

Everything study-specific that the execution layers need hangs off the
config class: :data:`STUDIES` maps each registered config class to its
manifest ``study`` tag and its cell worker.  The campaign runner and
:class:`~repro.experiments.dispatch.ShardRunner` take their default
worker from it (:func:`study_for`), :class:`~repro.experiments.campaign.
CampaignStore` stamps manifests with its tag (:func:`study_tag`), and a
CLI-launched worker shard (``repro campaign-worker --store DIR``), which
knows only the store directory, rebuilds config and worker from the
manifest through it (:func:`config_from_manifest`).  Adding a study
means adding one row here.  Manifests written before the tag existed
are single-hop sims (``"sim"``), matching how their artifacts load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..campaign import CellResult, config_fingerprint, run_cell_spec
from ..config import SimStudyConfig
from ..multihop import MultihopStudyConfig, run_multihop_cell_spec
from ..sinr_study import SinrStudyConfig
from ..slotsim_study import SlotStudyConfig, run_slot_cell_spec

__all__ = [
    "STUDIES",
    "Study",
    "config_from_manifest",
    "resolve_study",
    "study_for",
    "study_tag",
]


@dataclass(frozen=True)
class Study:
    """The runnable pieces of one registered study family."""

    tag: str
    config_cls: type
    #: ``(spec, metrics=None, profiler=None) -> CellResult``, a
    #: top-level function so sharded campaigns can pickle it.
    worker: Callable[..., CellResult]


#: Config class -> its study.  The SINR study reuses the single-hop
#: worker: its config supplies the reception model and replicate class.
STUDIES: dict[type, Study] = {
    study.config_cls: study
    for study in (
        Study("sim", SimStudyConfig, run_cell_spec),
        Study("multihop", MultihopStudyConfig, run_multihop_cell_spec),
        Study("slotsim", SlotStudyConfig, run_slot_cell_spec),
        Study("sinr", SinrStudyConfig, run_cell_spec),
    )
}


def study_for(config) -> Study:
    """The registered :class:`Study` for a config instance's class.

    Exact class lookup: a subclass of a registered config is a new
    study, never silently run by its parent's worker.
    """
    study = STUDIES.get(type(config))
    if study is None:
        raise ValueError(
            f"{type(config).__name__} is not a registered study: add a Study "
            "row to repro.experiments.dispatch.registry.STUDIES, or pass "
            "worker= explicitly"
        )
    return study


def study_tag(config) -> str:
    """The manifest ``study`` tag for a config instance.

    Unregistered classes (run with an explicit ``worker=``) are tagged
    with their class name, which :func:`resolve_study` rejects.
    """
    study = STUDIES.get(type(config))
    return type(config).__name__ if study is None else study.tag


def resolve_study(tag: str) -> Study:
    """The registered :class:`Study` for a manifest ``study`` tag."""
    for study in STUDIES.values():
        if study.tag == tag:
            return study
    raise ValueError(
        f"unknown study {tag!r}: this store was built by a study plugged "
        "in through the Python API; join it with ShardRunner(config=..., "
        "worker=...) instead of the CLI"
    )


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value


def config_from_manifest(manifest: dict) -> tuple[object, Study]:
    """Rebuild ``(config, study)`` from a campaign manifest payload.

    JSON demotes the config's tuples to lists; rebuilding converts them
    back recursively, then cross-checks the rebuilt config's
    fingerprint against the manifest's — a mismatch means the manifest
    was edited or the config schema drifted, either of which must stop
    a worker before it computes a single wrong cell.
    """
    study = resolve_study(manifest.get("study", "sim"))
    raw = manifest.get("config")
    if not isinstance(raw, dict):
        raise ValueError("manifest has no config record to rebuild")
    config = study.config_cls(**{k: _tuplify(v) for k, v in raw.items()})
    if config_fingerprint(config) != manifest.get("fingerprint"):
        raise ValueError(
            "rebuilt config does not match the manifest fingerprint; "
            "refusing to join (was the manifest edited?)"
        )
    return config, study
