"""One run specification and one executor, with a process-level memo.

Every replay this package runs -- a figure's (trace, scheme) pair, a
multi-tenant shared domain, a sharded cluster -- is described by one
frozen :class:`RunSpec` and run by :func:`execute`.  Figures 8, 9a,
9b, 10 and 11 are all views of the same fifteen replays (3 traces x
5 schemes), so :func:`execute` memoises the plain single-trace runs
by their spec; the figure benches then share one matrix instead of
re-simulating.  :func:`execute_many` runs a batch of such specs, on a
process pool when there is more than one to run and more than one
core: each distinct trace's columns (the only form a trace is stored
in) are shipped to the workers as flat NumPy buffers, and every result
lands in the same memo, so the result of a spec does not depend on
which process ran it.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Type, Union,
)

from repro.baselines.base import DedupScheme, SchemeConfig
from repro.baselines.registry import DEFAULT_REGISTRY
from repro.cluster.replay import ClusterConfig, replay_cluster
from repro.errors import ConfigError
from repro.obs.trace import TraceRecorder
from repro.sim.replay import ReplayConfig, ReplayResult, replay_traces
from repro.traces.columnar import ColumnarTrace
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

#: A trace is a preset name (:func:`paper_traces`) or a custom spec.
TraceRef = Union[str, TraceSpec]

#: A generated trace's memo key: (spec name, scale, seed).
TraceKey = Tuple[str, float, Optional[int]]

_trace_cache: Dict[TraceKey, Trace] = {}
_run_cache: Dict[tuple, ReplayResult] = {}


def clear_run_cache() -> None:
    """Forget all memoised traces and replays (tests use this)."""
    _trace_cache.clear()
    _run_cache.clear()


def get_trace(spec: TraceSpec, scale: float = 1.0, seed: Optional[int] = None) -> Trace:
    """Generate (or fetch the memoised) trace for a spec."""
    key = (spec.name, scale, seed)
    if key not in _trace_cache:
        _trace_cache[key] = generate_trace(spec, seed=seed, scale=scale)
    return _trace_cache[key]


def _trace_spec(trace: TraceRef) -> TraceSpec:
    if isinstance(trace, TraceSpec):
        return trace
    specs = paper_traces()
    if trace not in specs:
        raise ConfigError(f"unknown trace {trace!r}; have {sorted(specs)}")
    return specs[trace]


def _node_config(
    families: Sequence[TraceSpec], scale: float, overrides: Mapping[str, Any]
) -> SchemeConfig:
    """The one sizing rule (memory budgets of Section IV-A).

    A node holding one volume of each of ``families`` gets the sum of
    their scaled logical spaces and memory budgets (a generated
    trace's ``logical_blocks`` is its scaled spec's).  The iCache
    epoch scales with the generator scale: trace duration and phase
    length grow proportionally with scale, and the epoch must keep
    integrating the same number of read/write phases per decision
    (see benchmarks/bench_ablation_icache.py).
    """
    scaled = [f.scaled(scale) if scale != 1.0 else f for f in families]
    params: Dict[str, Any] = dict(
        logical_blocks=sum(s.logical_blocks for s in scaled),
        memory_bytes=sum(s.memory_bytes for s in scaled),
        icache_epoch=max(1.0, 16.0 * scale),
    )
    params.update(overrides)
    return SchemeConfig(**params)


def scheme_config_for(
    spec: TraceSpec, scale: float = 1.0, **overrides
) -> SchemeConfig:
    """Scheme configuration for one volume of ``spec``."""
    return _node_config([spec], scale, overrides)


def build_scheme(
    scheme_name: str, spec: TraceSpec, scale: float = 1.0, **overrides
) -> DedupScheme:
    """Instantiate a scheme configured for a trace."""
    return DEFAULT_REGISTRY.build(
        scheme_name, scheme_config_for(spec, scale, **overrides)
    )


def multi_tenant_traces(
    traces: Sequence[TraceRef],
    copies: int = 2,
    scale: float = DEFAULT_SCALE,
    seed: Optional[int] = None,
    divergence: float = 0.15,
    arrival_skew: float = 0.5,
) -> List[Trace]:
    """Expand base traces into the multi-tenant volume set.

    Each base trace founds a *family* of ``copies`` tenant volumes
    (clones of the base image with per-tenant divergence and skewed
    arrival rates, :func:`clone_tenants`).  Distinct families model
    unrelated base images, so their fingerprint spaces are salted
    apart by :data:`FP_FAMILY_STRIDE` -- without the salt, every
    generator's fingerprints start at 1 and unrelated workloads would
    alias as cross-volume duplicates.
    """
    volumes: List[Trace] = []
    for family, trace in enumerate(traces):
        base = get_trace(_trace_spec(trace), scale=scale, seed=seed)
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


@dataclass(frozen=True)
class Tenants:
    """Tenant expansion: ``copies`` clones per base trace, each
    privatising ``divergence`` of its content, tenant ``k`` arriving
    at ``(k+1)^-skew`` of the base rate (:func:`multi_tenant_traces`)."""

    copies: int = 2
    divergence: float = 0.15
    skew: float = 0.5


@dataclass(frozen=True)
class RunSpec:
    """Everything one replay is a function of.

    ``traces`` are preset names or :class:`TraceSpec` objects (a bare
    one is a one-trace run).  ``tenants=None`` replays the traces as
    generated; a :class:`Tenants` expands each into a family of tenant
    volumes.  ``nodes=None`` replays every volume through one shared
    dedup domain (:func:`~repro.sim.replay.replay_traces`); an int
    spreads them round-robin over that many nodes
    (:func:`~repro.cluster.replay.replay_cluster`, which reads
    ``cluster``).  ``overrides`` are :class:`SchemeConfig` fields
    (e.g. ``index_fraction=0.3`` for the Fig. 3 sweep), given as a
    mapping or pairs and kept as sorted pairs.
    """

    traces: Tuple[TraceRef, ...]
    scheme: str = "POD"
    overrides: Tuple[Tuple[str, Any], ...] = ()
    tenants: Optional[Tenants] = None
    nodes: Optional[int] = None
    replay: ReplayConfig = ReplayConfig()
    cluster: ClusterConfig = ClusterConfig()
    seed: Optional[int] = None
    scale: float = DEFAULT_SCALE

    def __post_init__(self) -> None:
        traces = self.traces
        if isinstance(traces, (str, TraceSpec)):
            traces = (traces,)
        object.__setattr__(self, "traces", tuple(traces))
        object.__setattr__(
            self, "scheme", DEFAULT_REGISTRY.resolve_name(self.scheme)
        )
        object.__setattr__(
            self, "overrides", tuple(sorted(dict(self.overrides).items()))
        )
        if not self.traces:
            raise ConfigError("a run needs at least one trace")
        self.trace_specs()  # rejects unknown preset names
        if self.nodes is None:
            if self.cluster != ClusterConfig():
                raise ConfigError("cluster options need a node count")
            return
        if self.nodes < 1:
            raise ConfigError(f"cluster needs at least one node, got {self.nodes}")
        volumes = len(self.traces) * (self.tenants.copies if self.tenants else 1)
        if self.nodes > volumes:
            raise ConfigError(
                f"{self.nodes} nodes but only {volumes} tenant volumes; "
                "every node must own at least one volume"
            )

    def trace_specs(self) -> List[TraceSpec]:
        """The base trace specs, presets resolved."""
        return [_trace_spec(t) for t in self.traces]

    @property
    def memo_refusal(self) -> Optional[str]:
        """Why :func:`execute` never memoises this run, or None.

        Only plain single-trace runs are memoised.  Tenant and cluster
        runs are interactive by design, and a run arming the timeline,
        spans, an SLO or the job subsystem carries per-run mutable
        state (sampler, tracer, job summaries) each caller must get
        fresh.
        """
        r = self.replay
        for reason, applies in (
            ("replays several traces", len(self.traces) > 1),
            ("expands tenants", self.tenants is not None),
            ("runs on a cluster", self.nodes is not None),
            ("arms the timeline", r.timeline is not None),
            ("arms spans", r.spans),
            ("arms an SLO", r.slo is not None),
            ("arms the job subsystem", r.jobs is not None),
        ):
            if applies:
                return reason
        return None

    @property
    def memo_key(self) -> Optional[tuple]:
        """The memo key, or None for runs :func:`execute` never memoises
        (:attr:`memo_refusal` says why).  A custom :class:`TraceSpec` is
        keyed by its name (it is not hashable) -- give variants distinct
        names.
        """
        if self.memo_refusal is not None:
            return None
        trace = self.traces[0]
        name = trace if isinstance(trace, str) else ("custom", trace.name)
        return (name, self.scheme, self.overrides, self.replay, self.seed, self.scale)

    def as_dict(self) -> Dict[str, Any]:
        """The run report's ``config`` section (JSON-ready)."""
        r, c = self.replay, self.cluster
        doc: Dict[str, Any] = {
            "traces": [t if isinstance(t, str) else t.name for t in self.traces],
            "scheme": self.scheme,
            "overrides": {
                k: dataclasses.asdict(v) if dataclasses.is_dataclass(v) else v
                for k, v in self.overrides
            },
            "index_fraction": dict(self.overrides).get("index_fraction"),
            "seed": self.seed,
            "scale": self.scale,
            "raid": r.raid_level.name.lower(),
            "ndisks": r.ndisks,
            "failed_disk": r.failed_disk,
            "faults": r.faults.as_dict() if r.faults is not None else None,
            "jobs": r.jobs.as_dict() if r.jobs is not None else None,
        }
        if self.tenants is not None:
            t = self.tenants
            doc.update(copies=t.copies, divergence=t.divergence, arrival_skew=t.skew)
        if self.nodes is None:
            return doc
        rb, nf, d = c.rebalance, c.node_failure, c.directory
        gc = d.gc if d is not None else None
        doc.update(
            nodes=self.nodes, vnodes=c.vnodes,
            net_latency=c.net.latency, net_bandwidth=c.net.bandwidth,
            rebalance_at=rb.time if rb else None,
            rebalance_add=rb.add_nodes if rb else 0,
            rebalance_remove=rb.remove_node if rb else None,
            fail_node=nf.node if nf else None, fail_node_at=nf.time if nf else None,
            fail_slow=[dataclasses.asdict(w) for w in c.fail_slow],
            verify_content=c.verify_content,
            replication=d.replication if d else None,
            consistency=d.consistency.value if d else None,
            gc=dataclasses.asdict(gc) if gc else None,
            kill_metadata_node=dataclasses.asdict(d.kill) if d and d.kill else None,
        )
        return doc


def replay_spec(
    spec: RunSpec,
    volumes: Sequence[Union[Trace, ColumnarTrace]],
    recorder: Optional[TraceRecorder] = None,
) -> ReplayResult:
    """Size one scheme per node and replay ``spec``'s volumes.

    Volume ``v`` descends from base trace ``v // copies`` (tenants are
    family-major), lives on node ``v % nodes``, and each node is sized
    by :func:`_node_config`; one untenanted volume keeps the classic
    single-volume report (no per-volume section).
    """
    families = spec.trace_specs()
    per_family = spec.tenants.copies if spec.tenants is not None else 1
    nodes = spec.nodes or 1
    assignment = [v % nodes for v in range(len(volumes))]
    schemes = [
        DEFAULT_REGISTRY.build(spec.scheme, _node_config(
            [families[v // per_family] for v, owner in enumerate(assignment)
             if owner == node],
            spec.scale, dict(spec.overrides),
        ))
        for node in range(nodes)
    ]
    if spec.nodes is None:
        return replay_traces(
            volumes, schemes[0], spec.replay, recorder=recorder,
            per_volume_metrics=spec.tenants is not None or len(volumes) > 1,
        )
    return replay_cluster(
        volumes, schemes, spec.cluster, spec.replay,
        assignment=assignment, recorder=recorder,
    )


def execute(spec: RunSpec, recorder: Optional[TraceRecorder] = None) -> ReplayResult:
    """Expand ``spec``'s tenants, size its nodes, replay, and memoise.

    A run with a ``recorder`` always replays (the recorder must see
    the events); see :attr:`RunSpec.memo_key` for the rest of the
    memo's scope.  The trace cache is shared by every run: trace
    generation is deterministic in (spec, scale, seed).
    """
    key = spec.memo_key if recorder is None else None
    if key is not None and key in _run_cache:
        return _run_cache[key]
    t = spec.tenants
    if t is None:
        volumes: Sequence[Trace] = [
            get_trace(s, scale=spec.scale, seed=spec.seed)
            for s in spec.trace_specs()
        ]
    else:
        volumes = multi_tenant_traces(
            spec.traces, copies=t.copies, scale=spec.scale, seed=spec.seed,
            divergence=t.divergence, arrival_skew=t.skew,
        )
    result = replay_spec(spec, volumes, recorder)
    if key is not None:
        _run_cache[key] = result
    return result


#: Pending requests each worker of an :func:`execute_many` pool must
#: bring, so that the pool beats one process.  A spawned worker spends
#: about 0.8 s importing ``repro`` before its first replay, and the
#: dedup schemes replay 23-63k req/s on the columnar driver (a shared
#: 2-core VM; Native 74-205k), about 40k at the median: a pool of w
#: workers finishes first only above about 0.8 s x 40k req/s x
#: w/(w-1) requests, i.e. 64k for two workers.  A Fig. 8 matrix holds
#: 17k requests at scale 0.02 (in process) and 214k at 0.25 (a pool).
POOL_REQUESTS_PER_WORKER = 32_000

#: The column payloads of one :func:`execute_many` pool, by trace key
#: (set in each worker by :func:`_receive_columns`).
_shipped: Dict[TraceKey, ColumnarTrace] = {}


def _receive_columns(payloads: Dict[TraceKey, Dict[str, Any]]) -> None:
    """Pool initializer: rebuild every shipped trace once per worker."""
    _shipped.update(
        (key, ColumnarTrace.from_payload(p)) for key, p in payloads.items()
    )


def _replay_shipped(job: Tuple[RunSpec, TraceKey]) -> ReplayResult:
    """Worker entry point (module-level, so it pickles): the replay
    :func:`execute` runs, on the shipped columns."""
    spec, trace_key = job
    return replay_spec(spec, [_shipped[trace_key]])


def execute_many(
    specs: Sequence[RunSpec], workers: Optional[int] = None
) -> List[ReplayResult]:
    """Run a batch of memoised specs; the results in spec order.

    Every spec must be one :func:`execute` memoises (``ConfigError``
    says why one is not).  Memo hits cost nothing and a spec listed
    twice runs once.  ``workers`` defaults to one per
    :data:`POOL_REQUESTS_PER_WORKER` pending requests, up to one per
    pending run and the CPU count; an explicit count is capped at one
    per pending run.  At one worker each run goes through
    :func:`execute` in this process.  Above one, a pool of spawned
    processes runs them (no worker inherits this process's threads or
    state): each distinct trace's columns are shipped once per worker,
    and every result is memoised here under its spec's key.  The
    workers replay the trace's own columns and the replay is
    deterministic, so the results do not depend on the worker count.  A spawned worker
    imports the calling script, so a script that calls this keeps its
    entry point under ``if __name__ == "__main__"``.
    """
    keys: List[tuple] = []
    for spec in specs:
        key = spec.memo_key
        if key is None:
            raise ConfigError(
                f"execute_many takes memoised runs only, and this "
                f"{spec.scheme} run {spec.memo_refusal}; run it with execute"
            )
        keys.append(key)
    if workers is not None and workers < 1:
        raise ConfigError(f"execute_many needs at least one worker, got {workers}")
    pending: Dict[tuple, RunSpec] = {}
    for key, spec in zip(keys, specs):
        if key not in _run_cache:
            pending.setdefault(key, spec)
    if workers is None:
        requests = sum(
            len(get_trace(base, scale=spec.scale, seed=spec.seed))
            for spec in pending.values()
            for base in spec.trace_specs()
        )
        workers = min(os.cpu_count() or 1, requests // POOL_REQUESTS_PER_WORKER)
    workers = min(len(pending), workers)
    if workers <= 1:
        for spec in pending.values():
            execute(spec)
    else:
        jobs: List[Tuple[RunSpec, TraceKey]] = []
        payloads: Dict[TraceKey, Dict[str, Any]] = {}
        for spec in pending.values():
            (base,) = spec.trace_specs()
            trace_key = (base.name, spec.scale, spec.seed)
            if trace_key not in payloads:
                payloads[trace_key] = get_trace(
                    base, scale=spec.scale, seed=spec.seed
                ).columns.payload()
            jobs.append((spec, trace_key))
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn"),
            initializer=_receive_columns, initargs=(payloads,),
        ) as pool:
            for key, result in zip(pending, pool.map(_replay_shipped, jobs)):
                _run_cache[key] = result
    return [_run_cache[key] for key in keys]


def run_matrix(
    trace_names: Optional[Iterable[str]] = None,
    scheme_names: Optional[Iterable[str]] = None,
    scale: float = DEFAULT_SCALE,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
) -> Dict[Tuple[str, str], ReplayResult]:
    """Replay every (trace, scheme) combination (:func:`execute_many`),
    keyed by (trace, scheme) name."""
    traces = list(trace_names) if trace_names is not None else sorted(paper_traces())
    schemes = list(scheme_names) if scheme_names is not None else list(PAPER_SCHEMES)
    keys = [(t, s) for t in traces for s in schemes]
    specs = [RunSpec(t, s, seed=seed, scale=scale) for t, s in keys]
    return dict(zip(keys, execute_many(specs, workers)))
