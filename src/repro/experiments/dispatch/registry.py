"""The study table: one :class:`Study` record per campaign family.

Everything study-specific that the execution layers need is one row of
:data:`STUDIES`, which maps each manifest ``study`` tag to the study's
config class, cell worker and replicate class.  The campaign
runner and :class:`~repro.experiments.dispatch.ShardRunner` take their
default worker from it (:func:`study_for`),
:class:`~repro.experiments.campaign.CampaignStore` stamps manifests with
its tag (:func:`study_tag`), :mod:`repro.experiments.io` rebuilds cell
artifacts through its replicate class, and a CLI-launched worker shard
(``repro campaign-worker --store DIR``), which knows only the store
directory, rebuilds config and worker from the manifest through it
(:func:`config_from_manifest`).  Adding a study means adding one row
here.  Manifests written before the tag existed are single-hop sims
(``"sim"``), matching how their artifacts load.

A row names its pieces instead of importing them, and is imported only
when a config, manifest or artifact of its study turns up
(:func:`resolve_study`): a single-hop campaign never loads the routing
layer, the slot model or the analytic core behind the other studies.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from typing import Callable

from ..campaign import CellResult, config_fingerprint

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
    #: Rebuilds one stored replicate (``from_record``); its ``kind`` is
    #: the study's tag.
    replicate_cls: type


#: Manifest ``study`` tag -> its config class, cell worker and replicate
#: class, each ``"module:name"`` in :mod:`repro.experiments`.  The SINR
#: study reuses the single-hop worker: its config supplies the reception
#: model and replicate class.
STUDIES: dict[str, tuple[str, str, str]] = {
    "sim": (
        "config:SimStudyConfig",
        "campaign:run_cell_spec",
        "campaign:ReplicateMetrics",
    ),
    "multihop": (
        "multihop:MultihopStudyConfig",
        "multihop:run_multihop_cell_spec",
        "multihop:MultihopReplicateMetrics",
    ),
    "slotsim": (
        "slotsim_study:SlotStudyConfig",
        "slotsim_study:run_slot_cell_spec",
        "slotsim_study:SlotReplicateMetrics",
    ),
    "sinr": (
        "sinr_study:SinrStudyConfig",
        "campaign:run_cell_spec",
        "sinr_study:SinrReplicateMetrics",
    ),
}


def _qualified(path: str) -> tuple[str, str]:
    """``(module, name)`` of a ``"module:name"`` entry of :data:`STUDIES`."""
    module, name = path.split(":")
    return f"repro.experiments.{module}", name


@functools.cache
def resolve_study(tag: str) -> Study:
    """The registered :class:`Study` for a manifest ``study`` tag."""
    if tag not in STUDIES:
        raise ValueError(
            f"unknown study {tag!r}: this store was built by a study plugged "
            "in through the Python API; join it with ShardRunner(config=..., "
            "worker=...) instead of the CLI"
        )
    pieces = []
    for path in STUDIES[tag]:
        module, name = _qualified(path)
        pieces.append(getattr(importlib.import_module(module), name))
    return Study(tag, *pieces)


def _registered_tag(config) -> str | None:
    """The tag whose row names ``config``'s exact class, else ``None``.

    Matched by module and name, so looking a config up imports nothing
    its class did not; a subclass of a registered config is a new
    study, never silently run by its parent's worker.
    """
    cls = type(config)
    for tag, (config_path, _worker, _replicate) in STUDIES.items():
        if _qualified(config_path) == (cls.__module__, cls.__qualname__):
            return tag
    return None


def study_for(config) -> Study:
    """The registered :class:`Study` for a config instance's class."""
    tag = _registered_tag(config)
    if tag is None:
        raise ValueError(
            f"{type(config).__name__} is not a registered study: add a row "
            "to repro.experiments.dispatch.registry.STUDIES, or pass "
            "worker= explicitly"
        )
    return resolve_study(tag)


def study_tag(config) -> str:
    """The manifest ``study`` tag for a config instance.

    Unregistered classes (run with an explicit ``worker=``) are tagged
    with their class name, which :func:`resolve_study` rejects.
    """
    return _registered_tag(config) or type(config).__name__


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
