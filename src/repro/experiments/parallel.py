"""Parallel experiment execution.

A full-scale reproduction run is 15+ independent replays (3 traces x
5+ schemes), each single-threaded and seconds-to-minutes long -- an
embarrassingly parallel workload.  :func:`run_matrix_parallel` fans
the (trace, scheme) grid out over a process pool and folds the results
back into :func:`repro.experiments.runner.execute`'s memo under each
run's spec, so the figure drivers can be called afterwards without
re-simulating.

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

from repro.baselines.registry import DEFAULT_REGISTRY
from repro.experiments import runner
from repro.experiments.runner import RunSpec
from repro.sim.replay import ReplayConfig, ReplayResult
from repro.traces.columnar import ColumnarTrace
from repro.traces.synthetic import paper_traces

#: One job: the run's spec and its trace as a columnar payload (flat
#: NumPy buffers -- cheap to pickle).
Job = Tuple[RunSpec, Dict[str, Any]]


def _run_job(job: Job) -> ReplayResult:
    """Worker entry point (module-level for picklability): the replay
    :func:`repro.experiments.runner.execute` runs, on the shipped trace."""
    spec, payload = job
    return runner.replay_spec(spec, [ColumnarTrace.from_payload(payload)])


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

    Each result is also memoised under its spec's key, so a later
    :func:`~repro.experiments.runner.execute` of the same spec (a
    figure call at the same scale, say) returns it.
    """
    traces = (
        list(trace_names) if trace_names is not None else sorted(paper_traces())
    )
    schemes = (
        list(scheme_names) if scheme_names is not None
        else list(DEFAULT_REGISTRY.paper_schemes())
    )
    replay_config = replay_config if replay_config is not None else ReplayConfig()
    specs = paper_traces()
    jobs: List[Job] = []
    for t in traces:
        trace = runner.get_trace(specs[t], scale=scale, seed=seed)
        payload = ColumnarTrace.from_trace(trace).payload()
        for s in schemes:
            spec = RunSpec(t, s, config_overrides, replay=replay_config,
                           seed=seed, scale=scale)
            jobs.append((spec, payload))

    workers = max_workers or min(len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        results = list(map(_run_job, jobs))
    else:
        with ProcessPoolExecutor(max_workers=workers) as executor:
            results = list(executor.map(_run_job, jobs))
    out: Dict[Tuple[str, str], ReplayResult] = {}
    for (spec, _payload), result in zip(jobs, results):
        out[(spec.traces[0], spec.scheme)] = result
        runner.remember(spec, result)
    return out
