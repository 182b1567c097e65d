"""The experiment runner's batch executor: ``execute_many`` and the
``run_matrix`` grid built on it, in process and on a process pool."""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import ConfigError
from repro.experiments import runner
from repro.obs.timeline import TimelineConfig
from repro.sim.replay import ReplayConfig, replay_trace
from repro.traces.columnar import ColumnarTrace
from repro.traces import format as format_module
from repro.traces.synthetic import paper_traces

SCALE = 0.02


@pytest.fixture(autouse=True)
def fresh_cache():
    runner.clear_run_cache()
    yield
    runner.clear_run_cache()


def _must_not_run(*args, **kwargs):
    raise AssertionError("called where nothing should run")


def test_parallel_matches_serial():
    """The pool's matrix is bit-identical to the in-process one."""
    serial = runner.run_matrix(["web-vm"], ["Native", "POD"], scale=SCALE, workers=1)
    runner.clear_run_cache()
    parallel = runner.run_matrix(
        ["web-vm"], ["Native", "POD"], scale=SCALE, workers=2
    )
    assert set(parallel) == set(serial)
    for key in serial:
        assert parallel[key].metrics.as_dict() == serial[key].metrics.as_dict()
        assert parallel[key].capacity_blocks == serial[key].capacity_blocks


def test_single_worker_path(monkeypatch):
    """One worker runs every spec in process: no pool is started."""
    monkeypatch.setattr(runner, "ProcessPoolExecutor", _must_not_run)
    out = runner.run_matrix(["homes"], ["Native", "POD"], scale=SCALE, workers=1)
    assert out[("homes", "Native")].metrics.requests > 0


def test_small_default_batch_runs_in_process(monkeypatch):
    """By default a batch too small to pay for spawning a worker runs
    in process: the Fig. 8 matrix at scale 0.02 holds about 17k
    requests, under one worker's share."""
    monkeypatch.setattr(runner, "ProcessPoolExecutor", _must_not_run)
    out = runner.run_matrix(scale=SCALE)
    assert len(out) == 3 * len(runner.PAPER_SCHEMES)


def test_default_worker_count_follows_requests(monkeypatch):
    """The default pool has one worker per
    ``POOL_REQUESTS_PER_WORKER`` pending requests, capped at the
    pending runs and the CPU count; one worker's worth runs in
    process."""
    started = []

    class Pool:
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [runner.execute(spec) for spec, _key in jobs]

    monkeypatch.setattr(runner, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 8)
    specs = [runner.RunSpec("homes", s, scale=SCALE) for s in ("Native", "POD", "iDedup")]
    requests = len(runner.get_trace(paper_traces()["homes"], scale=SCALE))
    for share, expect in ((requests * 3, None), (requests, 3), (requests * 3 // 2, 2)):
        runner.clear_run_cache()
        started.clear()
        monkeypatch.setattr(runner, "POOL_REQUESTS_PER_WORKER", share)
        runner.execute_many(specs)
        assert started == ([] if expect is None else [expect]), share


def test_defaults_cover_paper_grid():
    out = runner.run_matrix(scale=0.01, workers=2)
    assert len(out) == 3 * len(runner.PAPER_SCHEMES)


def _fingerprints(matrix):
    return {
        key: (
            result.metrics.as_dict(),
            result.scheme_stats,
            result.capacity_blocks,
        )
        for key, result in matrix.items()
    }


def test_worker_count_invariance():
    """Shipping traces as column payloads must not leak any worker-
    count dependence: 1, 2 and 3 workers produce bit-identical
    matrices."""
    grid = dict(
        trace_names=["web-vm", "homes"], scheme_names=["Native", "POD"],
        scale=SCALE,
    )
    base = None
    for workers in (1, 2, 3):
        runner.clear_run_cache()
        got = _fingerprints(runner.run_matrix(workers=workers, **grid))
        if base is None:
            base = got
        assert got == base, f"matrix differs at workers={workers}"


def test_batch_size_matches_object_path():
    """The pool's matrix (columnar driver in the workers) equals a
    per-pair replay on the reference object event loop."""
    batched = runner.run_matrix(
        ["web-vm", "homes"], ["Native", "POD"], scale=SCALE, workers=2
    )
    specs = paper_traces()
    reference = {}
    for trace_name, scheme_name in batched:
        spec = specs[trace_name]
        reference[(trace_name, scheme_name)] = replay_trace(
            runner.get_trace(spec, scale=SCALE),
            runner.build_scheme(scheme_name, spec, scale=SCALE),
            ReplayConfig(),
            batch_size=None,
        )
    assert _fingerprints(batched) == _fingerprints(reference)


@pytest.mark.parametrize("workers", [1, 2])
def test_columns_once_per_trace(workers, monkeypatch):
    """A 3-trace x 4-scheme matrix never converts a trace, in process
    and on the pool: generation writes each trace's columns once, and
    every replay (and every shipped payload) reads them."""
    converted = []
    from_records = ColumnarTrace.from_records.__func__
    build = format_module.TraceRecord

    def spy_from_records(cls, name, *args, **kwargs):
        converted.append(name)
        return from_records(cls, name, *args, **kwargs)

    def spy_record(*args, **kwargs):
        converted.append("record")
        return build(*args, **kwargs)

    monkeypatch.setattr(ColumnarTrace, "from_records", classmethod(spy_from_records))
    monkeypatch.setattr(format_module, "TraceRecord", spy_record)
    out = runner.run_matrix(
        ["web-vm", "homes", "mail"],
        ["Native", "Full-Dedupe", "Select-Dedupe", "POD"],
        scale=SCALE, workers=workers,
    )
    assert len(out) == 12
    assert converted == []


@pytest.mark.parametrize("workers", [1, 2])
def test_execute_many_order_and_dedup(workers, monkeypatch):
    """Results come back in spec order, a spec listed twice runs once,
    and a second call is all memo hits."""
    pod = runner.RunSpec("homes", "POD", scale=SCALE)
    native = runner.RunSpec("homes", "Native", scale=SCALE)
    replayed = []
    replay_spec = runner.replay_spec

    def spy(spec, volumes, recorder=None):
        replayed.append(spec.scheme)
        return replay_spec(spec, volumes, recorder)

    def recording_pool(*args, **kwargs):
        # The workers replay in other processes: record what the pool
        # is handed instead.
        pool = ProcessPoolExecutor(*args, **kwargs)
        pool_map = pool.map

        def map_jobs(fn, jobs):
            jobs = list(jobs)
            replayed.extend(spec.scheme for spec, _trace in jobs)
            return pool_map(fn, jobs)

        pool.map = map_jobs
        return pool

    monkeypatch.setattr(runner, "replay_spec", spy)
    monkeypatch.setattr(runner, "ProcessPoolExecutor", recording_pool)
    twin = runner.RunSpec("homes", "POD", scale=SCALE)
    first = runner.execute_many([pod, native, twin, pod], workers=workers)
    assert [r.scheme_name for r in first] == ["POD", "Native", "POD", "POD"]
    assert first[0] is first[2] is first[3]
    assert sorted(replayed) == ["Native", "POD"]
    monkeypatch.setattr(runner, "replay_spec", _must_not_run)
    monkeypatch.setattr(runner, "ProcessPoolExecutor", _must_not_run)
    again = runner.execute_many([native, pod], workers=workers)
    assert again[0] is first[1] and again[1] is first[0]
    assert runner.execute(pod) is first[0]


@pytest.mark.parametrize("fields, reason", [
    (dict(tenants=runner.Tenants(copies=1)), "expands tenants"),
    (dict(nodes=1), "runs on a cluster"),
    (dict(replay=ReplayConfig(timeline=TimelineConfig(window=1.0))),
     "arms the timeline"),
])
def test_execute_many_rejects_unmemoised_specs(fields, reason, monkeypatch):
    """A spec execute would not memoise is refused before anything runs."""
    monkeypatch.setattr(runner, "replay_spec", _must_not_run)
    plain = runner.RunSpec("homes", "Native", scale=SCALE)
    spec = runner.RunSpec("homes", "POD", scale=SCALE, **fields)
    with pytest.raises(ConfigError, match=reason):
        runner.execute_many([plain, spec], workers=1)


def test_execute_many_needs_a_worker():
    with pytest.raises(ConfigError, match="at least one worker"):
        runner.execute_many([runner.RunSpec("homes", "POD", scale=SCALE)], workers=0)
