"""Deduplication schemes: the shared scheme interface and the
paper's comparison baselines.

* :mod:`repro.baselines.base` -- :class:`DedupScheme`, the interface
  every scheme implements, plus the shared write/read plumbing
  (chunking, map-table commit, consistency rules, cache interaction).
* :mod:`repro.baselines.native` -- the HDD system without
  deduplication ("Native").
* :mod:`repro.baselines.full_dedupe` -- traditional full inline
  deduplication with a full (partially on-disk) index ("Full-Dedupe").
* :mod:`repro.baselines.idedup` -- iDedup (Srinivasan et al.,
  FAST'12): capacity-oriented, deduplicates only long sequential
  duplicate runs, i.e. large writes.
* :mod:`repro.baselines.iodedup` -- I/O Deduplication (Koller &
  Rangaswami, FAST'10): a content-addressed read cache; extension
  baseline for Table I.
* :mod:`repro.baselines.registry` -- the declarative
  :class:`SchemeRegistry` every consumer (CLI, experiment runner)
  resolves and builds schemes through.

The paper's own schemes (Select-Dedupe, POD) live in
:mod:`repro.core` and implement the same interface.
"""

from __future__ import annotations

from repro.baselines.base import DedupScheme, PlannedIO, SchemeConfig
from repro.baselines.native import Native
from repro.baselines.full_dedupe import FullDedupe
from repro.baselines.idedup import IDedup
from repro.baselines.iodedup import IODedup
from repro.baselines.postprocess import PostProcessDedupe
from repro.baselines.registry import DEFAULT_REGISTRY, SchemeEntry, SchemeRegistry

__all__ = [
    "DedupScheme",
    "PlannedIO",
    "SchemeConfig",
    "Native",
    "FullDedupe",
    "IDedup",
    "IODedup",
    "PostProcessDedupe",
    "DEFAULT_REGISTRY",
    "SchemeEntry",
    "SchemeRegistry",
]
