"""Per-layer self time, measured by wrapping public entry points.

The wrappers are installed from the benchmark's own files around the
calls into each layer; nothing under ``src/`` is edited.  Each wrapped
call is a span: its self time is its duration minus the part covered by
wrapped calls it makes.  Self times are summed per layer in memory and
read out when the traced replay ends.

On the columnar batch driver (``repro.sim.batch``) RAID mapping and disk
service are inlined into the driver loop, so there they appear only in
the driver residual (``sim.driver_self_s``), not in the ``storage.*``
layers.  Spans inside the program itself are left to a later change.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.baselines.base import DedupScheme
from repro.cluster import replay as cluster_replay
from repro.cluster.directory.quorum import ReplicatedDirectory
from repro.cluster.router import FingerprintRouter
from repro.core.icache import ICache
from repro.dedup.chunking import ChunkTransform
from repro.metrics.collector import MetricsCollector
from repro.obs.timeline import TimelineSampler
from repro.sim import batch, replay
from repro.storage.disk import Disk
from repro.storage.raid import RaidArray

#: Layer names reported as ``<layer>_s``.
LAYERS = (
    "traces.merge",
    "baselines.plan",
    "dedup.chunking",
    "core.icache_epoch",
    "storage.raid_map",
    "storage.disk_service",
    "metrics.record",
    "obs.timeline",
    "obs.slo",
    "cluster.directory",
    "cluster.route",
)


def _subclasses(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _targets() -> List[Tuple[Any, str, str]]:
    """(owner, attribute, layer) for every wrapped entry point."""
    targets: List[Tuple[Any, str, str]] = [
        (batch, "merge_columnar", "traces.merge"),
        (replay, "_merge_streams", "traces.merge"),
        (cluster_replay, "_merge_cluster_streams", "traces.merge"),
        (ChunkTransform, "transform", "dedup.chunking"),
        (ICache, "on_epoch", "core.icache_epoch"),
        (RaidArray, "map", "storage.raid_map"),
        (Disk, "service", "storage.disk_service"),
        (MetricsCollector, "record", "metrics.record"),
        (MetricsCollector, "record_node", "metrics.record"),
        (replay, "evaluate_slo", "obs.slo"),
        (cluster_replay, "evaluate_slo", "obs.slo"),
        (ReplicatedDirectory, "lookup_register", "cluster.directory"),
        (FingerprintRouter, "route", "cluster.route"),
        (FingerprintRouter, "route_replicas", "cluster.route"),
    ]
    for name in ("note_request", "note_node_request", "note_gauges", "note_rpc",
                 "note_activity", "finish"):
        targets.append((TimelineSampler, name, "obs.timeline"))
    # Planning entry points, on every scheme class that defines them.
    for cls in dict.fromkeys(_subclasses(DedupScheme)):
        for name in ("process", "plan_batch", "plan_columns"):
            if name in vars(cls):
                targets.append((cls, name, "baselines.plan"))
    return targets


class LayerTracer:
    """Install with ``with LayerTracer() as t:``; read ``t.self_s``."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        #: Child time accumulated by each open span, innermost last.
        self._child: List[float] = []
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    def _wrap(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        stack = self._child
        totals = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                totals[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return span

    def __enter__(self) -> "LayerTracer":
        for owner, name, layer in _targets():
            own = name in vars(owner)
            original = vars(owner)[name] if own else getattr(owner, name)
            self._saved.append((owner, name, original, own))
            setattr(owner, name, self._wrap(getattr(owner, name), layer))
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, name, original, own in reversed(self._saved):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._saved.clear()
