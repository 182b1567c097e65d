"""Parallel experiment execution.

A full-scale reproduction run is 15+ independent replays (3 traces x
5+ schemes), each single-threaded and seconds-to-minutes long -- an
embarrassingly parallel workload.  :func:`run_matrix_parallel` fans
the (trace, scheme) grid out over a process pool and folds the results
back into the in-process memo cache, so the figure drivers can be
called afterwards without re-simulating.

Traces are shipped to workers as :class:`~repro.traces.columnar.
ColumnarTrace` payloads: flat NumPy column buffers plus the interned
fingerprint pool.  Pickling a column payload is orders of magnitude
cheaper than pickling a deep list of per-record objects, and the
master generates (and memoises) each trace exactly once instead of
every worker regenerating it.

Determinism is preserved: the column round-trip is lossless and the
columnar batch driver is bit-identical to the object path (both pinned
by golden tests), so the parallel matrix is bit-identical to the
serial one at any worker count (asserted by the worker-count
invariance test).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.baselines.base import SchemeConfig
from repro.baselines.registry import DEFAULT_REGISTRY
from repro.sim.replay import ReplayConfig, ReplayResult
from repro.traces.columnar import ColumnarTrace
from repro.traces.synthetic import paper_traces

#: One fully serialised job: the trace as a columnar payload (flat
#: NumPy buffers -- cheap to pickle), the resolved scheme name, its
#: full configuration and the replay configuration.
Job = Tuple[Dict[str, Any], str, SchemeConfig, ReplayConfig]


def _run_job(job: Job) -> ReplayResult:
    """Worker entry point (module-level for picklability).

    Rebuilds the columnar trace from its shipped columns and replays
    it exactly as :func:`repro.experiments.runner.run_single` would.
    """
    from repro.sim.replay import replay_trace

    payload, scheme_name, scheme_config, replay_config = job
    ctrace = ColumnarTrace.from_payload(payload)
    scheme = DEFAULT_REGISTRY.build(scheme_name, scheme_config)
    return replay_trace(ctrace, scheme, replay_config)


def run_matrix_parallel(
    trace_names: Optional[Iterable[str]] = None,
    scheme_names: Optional[Iterable[str]] = None,
    scale: float = 0.25,
    seed: Optional[int] = None,
    replay_config: Optional[ReplayConfig] = None,
    max_workers: Optional[int] = None,
    **config_overrides: Any,
) -> Dict[Tuple[str, str], ReplayResult]:
    """Replay every (trace, scheme) pair on a process pool.

    Results are also inserted into :mod:`repro.experiments.runner`'s
    memo cache under the same keys ``run_single`` would use, so
    subsequent figure calls at the same scale reuse them.
    """
    from repro.experiments import runner

    traces = (
        list(trace_names) if trace_names is not None else sorted(paper_traces())
    )
    schemes = [
        runner.resolve_scheme_name(s)
        for s in (
            list(scheme_names)
            if scheme_names is not None
            else list(DEFAULT_REGISTRY.paper_schemes())
        )
    ]
    replay_config = replay_config if replay_config is not None else ReplayConfig()
    overrides = tuple(sorted(config_overrides.items()))
    specs = paper_traces()
    jobs: List[Job] = []
    for t in traces:
        trace = runner.get_trace(specs[t], scale=scale, seed=seed)
        payload = ColumnarTrace.from_trace(trace).payload()
        config = runner.scheme_config_for(specs[t], scale, **config_overrides)
        for s in schemes:
            jobs.append((payload, s, config, replay_config))

    workers = max_workers or min(len(jobs), os.cpu_count() or 1)
    out: Dict[Tuple[str, str], ReplayResult] = {}
    if workers <= 1:
        results = list(map(_run_job, jobs))
    else:
        with ProcessPoolExecutor(max_workers=workers) as executor:
            results = list(executor.map(_run_job, jobs))
    pairs = [(t, s) for t in traces for s in schemes]
    for (trace_name, scheme_name), result in zip(pairs, results):
        out[(trace_name, scheme_name)] = result
        cache_key = (
            trace_name,
            scheme_name,
            scale,
            seed,
            replay_config,
            overrides,
        )
        runner.memoize_result(cache_key, result)
    return out
