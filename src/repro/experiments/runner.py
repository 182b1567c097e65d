"""Build-and-replay driver with a process-level result cache.

Figures 8, 9a, 9b, 10 and 11 are all views of the same fifteen
replays (3 traces x 5 schemes), so the runner memoises
:class:`~repro.sim.replay.ReplayResult` by the full run key; the
figure benches then share one matrix instead of re-simulating.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.baselines.base import DedupScheme, SchemeConfig
from repro.baselines.registry import DEFAULT_REGISTRY
from repro.cluster.replay import ClusterConfig, replay_cluster
from repro.errors import ConfigError
from repro.obs.trace import TraceRecorder
from repro.sim.replay import ReplayConfig, ReplayResult, replay_trace, replay_traces
from repro.traces.format import Trace
from repro.traces.synthetic import (
    FP_FAMILY_STRIDE,
    TraceSpec,
    clone_tenants,
    generate_trace,
    paper_traces,
    salt_fingerprints,
)

#: Every scheme the evaluation compares, by report name.  Kept as a
#: module-level view for back compatibility; the source of truth is
#: :data:`repro.baselines.registry.DEFAULT_REGISTRY`.
SCHEME_CLASSES: Dict[str, Type[DedupScheme]] = DEFAULT_REGISTRY.classes()

#: The four schemes of Figs. 8-10 plus POD (Fig. 11), from the
#: registry's ``paper`` flags (registration order matches the legends).
PAPER_SCHEMES: Tuple[str, ...] = DEFAULT_REGISTRY.paper_schemes()

#: Default replay scale for benches: small enough to run a full
#: 3x5 matrix in seconds, large enough for stable shapes.
DEFAULT_SCALE: float = 0.25

_trace_cache: Dict[Tuple[str, float, Optional[int]], Trace] = {}
_run_cache: Dict[tuple, ReplayResult] = {}


def clear_run_cache() -> None:
    """Forget all memoised traces and replays (tests use this)."""
    _trace_cache.clear()
    _run_cache.clear()


def memoize_result(key: tuple, result: ReplayResult) -> None:
    """Install a replay result into the run cache under ``key``.

    Public seam for out-of-process executors (:mod:`repro.experiments.
    parallel`) that compute results elsewhere and want subsequent
    :func:`run_single` calls to hit the memo instead of re-simulating.
    """
    _run_cache[key] = result


def telemetry_armed(config: ReplayConfig) -> bool:
    """True when the config arms timeline/span/SLO telemetry or the
    leased-job subsystem.  Such runs bypass the memo like
    :func:`run_observed` does: the result carries per-run mutable
    state (sampler, tracer, job runtime summaries) that must be fresh
    for each caller."""
    return (
        config.timeline is not None
        or config.spans
        or config.slo is not None
        or config.jobs is not None
    )


def get_trace(spec: TraceSpec, scale: float = 1.0, seed: Optional[int] = None) -> Trace:
    """Generate (or fetch the memoised) trace for a spec."""
    key = (spec.name, scale, seed)
    if key not in _trace_cache:
        _trace_cache[key] = generate_trace(spec, seed=seed, scale=scale)
    return _trace_cache[key]


def scheme_config_for(
    spec: TraceSpec, scale: float = 1.0, **overrides
) -> SchemeConfig:
    """Per-trace scheme configuration (memory budgets of Section IV-A).

    The iCache epoch scales with the generator scale: trace duration
    and phase length grow proportionally with scale, and the epoch
    must keep integrating the same number of read/write phases per
    decision (see benchmarks/bench_ablation_icache.py).
    """
    scaled = spec.scaled(scale) if scale != 1.0 else spec
    params = dict(
        logical_blocks=scaled.logical_blocks,
        memory_bytes=scaled.memory_bytes,
        icache_epoch=max(1.0, 16.0 * scale),
    )
    params.update(overrides)
    return SchemeConfig(**params)


def resolve_scheme_name(scheme_name: str) -> str:
    """Map a user-typed scheme name to its canonical report name.

    Thin wrapper over :meth:`SchemeRegistry.resolve_name`; the lookup
    is case-insensitive over names and aliases (``pod`` -> ``POD``),
    so CLI users do not have to remember the paper's capitalisation.
    """
    return DEFAULT_REGISTRY.resolve_name(scheme_name)


def build_scheme(
    scheme_name: str, spec: TraceSpec, scale: float = 1.0, **overrides
) -> DedupScheme:
    """Instantiate a scheme configured for a trace."""
    return DEFAULT_REGISTRY.build(
        scheme_name, scheme_config_for(spec, scale, **overrides)
    )


def run_single(
    trace_name: str,
    scheme_name: str,
    scale: float = DEFAULT_SCALE,
    seed: Optional[int] = None,
    replay_config: Optional[ReplayConfig] = None,
    **config_overrides,
) -> ReplayResult:
    """Replay one (trace, scheme) pair, memoised.

    ``config_overrides`` are :class:`SchemeConfig` fields (e.g.
    ``index_fraction=0.3`` for the Fig. 3 sweep).
    """
    specs = paper_traces()
    if trace_name not in specs:
        raise ConfigError(f"unknown trace {trace_name!r}; have {sorted(specs)}")
    scheme_name = resolve_scheme_name(scheme_name)
    replay_config = replay_config if replay_config is not None else ReplayConfig()
    key = (
        trace_name,
        scheme_name,
        scale,
        seed,
        replay_config,
        tuple(sorted(config_overrides.items())),
    )
    bypass = telemetry_armed(replay_config)
    if not bypass and key in _run_cache:
        return _run_cache[key]
    spec = specs[trace_name]
    trace = get_trace(spec, scale=scale, seed=seed)
    scheme = build_scheme(scheme_name, spec, scale=scale, **config_overrides)
    result = replay_trace(trace, scheme, replay_config)
    if not bypass:
        _run_cache[key] = result
    return result


def run_observed(
    trace_name: str,
    scheme_name: str,
    scale: float = DEFAULT_SCALE,
    seed: Optional[int] = None,
    replay_config: Optional[ReplayConfig] = None,
    recorder: Optional[TraceRecorder] = None,
    **config_overrides,
) -> ReplayResult:
    """Replay one (trace, scheme) pair with observability attached.

    Unlike :func:`run_single` this never consults or populates the
    memo cache: an instrumented run must actually *run* so the
    recorder sees the events and the result carries fresh per-replay
    state (epoch timeline, recorder, scheme stats).  The trace cache
    is still shared -- trace generation is deterministic in (spec,
    scale, seed) and observation does not perturb it.
    """
    specs = paper_traces()
    if trace_name not in specs:
        raise ConfigError(f"unknown trace {trace_name!r}; have {sorted(specs)}")
    scheme_name = resolve_scheme_name(scheme_name)
    replay_config = replay_config if replay_config is not None else ReplayConfig()
    spec = specs[trace_name]
    trace = get_trace(spec, scale=scale, seed=seed)
    scheme = build_scheme(scheme_name, spec, scale=scale, **config_overrides)
    return replay_trace(trace, scheme, replay_config, recorder=recorder)


def run_custom(
    spec: TraceSpec,
    scheme_name: str,
    scale: float = DEFAULT_SCALE,
    seed: Optional[int] = None,
    replay_config: Optional[ReplayConfig] = None,
    **config_overrides,
) -> ReplayResult:
    """Replay a non-preset trace spec (e.g. a figure-specific variant).

    Memoised by ``spec.name`` -- give variants distinct names.
    """
    scheme_name = resolve_scheme_name(scheme_name)
    replay_config = replay_config if replay_config is not None else ReplayConfig()
    key = (
        "custom",
        spec.name,
        scheme_name,
        scale,
        seed,
        replay_config,
        tuple(sorted(config_overrides.items())),
    )
    bypass = telemetry_armed(replay_config)
    if not bypass and key in _run_cache:
        return _run_cache[key]
    trace = get_trace(spec, scale=scale, seed=seed)
    scheme = build_scheme(scheme_name, spec, scale=scale, **config_overrides)
    result = replay_trace(trace, scheme, replay_config)
    if not bypass:
        _run_cache[key] = result
    return result


def multi_tenant_traces(
    trace_names: Sequence[str],
    copies: int = 2,
    scale: float = DEFAULT_SCALE,
    seed: Optional[int] = None,
    divergence: float = 0.15,
    arrival_skew: float = 0.5,
) -> List[Trace]:
    """Expand trace names into the multi-tenant volume set.

    Each named base trace founds a *family* of ``copies`` tenant
    volumes (clones of the base image with per-tenant divergence and
    skewed arrival rates, :func:`clone_tenants`).  Distinct families
    model unrelated base images, so their fingerprint spaces are
    salted apart by :data:`FP_FAMILY_STRIDE` -- without the salt,
    every generator's fingerprints start at 1 and unrelated workloads
    would alias as cross-volume duplicates.
    """
    specs = paper_traces()
    volumes: List[Trace] = []
    for family, trace_name in enumerate(trace_names):
        if trace_name not in specs:
            raise ConfigError(
                f"unknown trace {trace_name!r}; have {sorted(specs)}"
            )
        base = get_trace(specs[trace_name], scale=scale, seed=seed)
        base = salt_fingerprints(base, family * FP_FAMILY_STRIDE)
        volumes.extend(
            clone_tenants(
                base,
                copies,
                divergence=divergence,
                arrival_skew=arrival_skew,
                seed=(seed if seed is not None else 0) + family,
            )
        )
    return volumes


def run_multi(
    trace_names: Sequence[str],
    scheme_name: str,
    copies: int = 2,
    scale: float = DEFAULT_SCALE,
    seed: Optional[int] = None,
    divergence: float = 0.15,
    arrival_skew: float = 0.5,
    replay_config: Optional[ReplayConfig] = None,
    recorder: Optional[TraceRecorder] = None,
    **config_overrides,
) -> ReplayResult:
    """Replay a multi-volume tenant set through one shared dedup domain.

    The volumes share a single scheme instance: one Map-table, one
    fingerprint index, one allocator, one cache -- so duplicate content
    across tenants collapses to one physical copy (the paper's
    Section I cloud scenario).  The scheme is sized for the *sum* of
    the per-volume logical spaces and memory budgets; per-volume
    response times and dedup splits land in ``result.volumes``.

    Never memoised: multi-volume runs are interactive/instrumented by
    design and the tenant expansion is cheap relative to the replay.
    """
    scheme_name = resolve_scheme_name(scheme_name)
    replay_config = replay_config if replay_config is not None else ReplayConfig()
    volumes = multi_tenant_traces(
        trace_names,
        copies=copies,
        scale=scale,
        seed=seed,
        divergence=divergence,
        arrival_skew=arrival_skew,
    )
    # Each tenant volume brings its base trace's memory budget; the
    # consolidated host pools them into one shared cache/index budget.
    specs = paper_traces()
    memory_bytes = copies * sum(
        (specs[n].scaled(scale) if scale != 1.0 else specs[n]).memory_bytes
        for n in trace_names
    )
    params = dict(
        logical_blocks=sum(t.logical_blocks for t in volumes),
        memory_bytes=memory_bytes,
        icache_epoch=max(1.0, 16.0 * scale),
    )
    params.update(config_overrides)
    scheme = DEFAULT_REGISTRY.build(scheme_name, SchemeConfig(**params))
    return replay_traces(volumes, scheme, replay_config, recorder=recorder)


def run_cluster(
    trace_names: Sequence[str],
    scheme_name: str,
    nodes: int = 2,
    copies: int = 2,
    scale: float = DEFAULT_SCALE,
    seed: Optional[int] = None,
    divergence: float = 0.15,
    arrival_skew: float = 0.5,
    replay_config: Optional[ReplayConfig] = None,
    cluster_config: Optional[ClusterConfig] = None,
    recorder: Optional[TraceRecorder] = None,
    **config_overrides,
) -> ReplayResult:
    """Replay the multi-tenant volume set across a sharded cluster.

    The tenant expansion is exactly :func:`multi_tenant_traces`; volumes
    are spread round-robin over ``nodes`` complete POD instances, each
    sized for the sum of its assigned volumes' logical spaces and
    memory budgets (the same family-level budgets :func:`run_multi`
    pools -- at ``nodes=1`` the single node gets the identical
    configuration, which is what pins the golden bit-identity test).

    Never memoised, like :func:`run_multi`.
    """
    scheme_name = resolve_scheme_name(scheme_name)
    replay_config = replay_config if replay_config is not None else ReplayConfig()
    cluster_config = (
        cluster_config if cluster_config is not None else ClusterConfig()
    )
    volumes = multi_tenant_traces(
        trace_names,
        copies=copies,
        scale=scale,
        seed=seed,
        divergence=divergence,
        arrival_skew=arrival_skew,
    )
    if nodes < 1:
        raise ConfigError(f"cluster needs at least one node, got {nodes}")
    if nodes > len(volumes):
        raise ConfigError(
            f"{nodes} nodes but only {len(volumes)} tenant volumes; "
            "every node must own at least one volume"
        )
    # Volume ``v`` descends from base trace family ``v // copies``
    # (multi_tenant_traces emits tenants family-major), and carries
    # that family's per-tenant memory budget.
    specs = paper_traces()
    family_budget = [
        (specs[n].scaled(scale) if scale != 1.0 else specs[n]).memory_bytes
        for n in trace_names
    ]
    assignment = [vid % nodes for vid in range(len(volumes))]
    schemes = []
    for node in range(nodes):
        vids = [vid for vid, owner in enumerate(assignment) if owner == node]
        params = dict(
            logical_blocks=sum(volumes[v].logical_blocks for v in vids),
            memory_bytes=sum(family_budget[v // copies] for v in vids),
            icache_epoch=max(1.0, 16.0 * scale),
        )
        params.update(config_overrides)
        schemes.append(DEFAULT_REGISTRY.build(scheme_name, SchemeConfig(**params)))
    return replay_cluster(
        volumes,
        schemes,
        cluster_config,
        replay_config,
        assignment=assignment,
        recorder=recorder,
    )


def run_matrix(
    trace_names: Optional[Iterable[str]] = None,
    scheme_names: Optional[Iterable[str]] = None,
    scale: float = DEFAULT_SCALE,
    **kwargs,
) -> Dict[Tuple[str, str], ReplayResult]:
    """Replay every (trace, scheme) combination."""
    traces = list(trace_names) if trace_names is not None else sorted(paper_traces())
    schemes = list(scheme_names) if scheme_names is not None else list(PAPER_SCHEMES)
    return {
        (t, s): run_single(t, s, scale=scale, **kwargs)
        for t in traces
        for s in schemes
    }
