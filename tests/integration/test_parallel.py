"""Tests for the parallel experiment runner."""

import pytest

from repro.experiments import runner
from repro.experiments.parallel import run_matrix_parallel
from repro.sim.replay import ReplayConfig, replay_trace
from repro.traces.synthetic import paper_traces

SCALE = 0.02


@pytest.fixture(autouse=True)
def fresh_cache():
    runner.clear_run_cache()
    yield
    runner.clear_run_cache()


def test_parallel_matches_serial():
    """The parallel matrix is bit-identical to the serial one."""
    serial = runner.run_matrix(["web-vm"], ["Native", "POD"], scale=SCALE)
    runner.clear_run_cache()
    parallel = run_matrix_parallel(
        ["web-vm"], ["Native", "POD"], scale=SCALE, max_workers=2
    )
    assert set(parallel) == set(serial)
    for key in serial:
        assert parallel[key].metrics.as_dict() == serial[key].metrics.as_dict()
        assert parallel[key].capacity_blocks == serial[key].capacity_blocks


def test_results_folded_into_memo_cache():
    run_matrix_parallel(["homes"], ["Native"], scale=SCALE, max_workers=2)
    # a subsequent serial call must not resimulate: same object back
    cached = runner.run_single("homes", "Native", scale=SCALE)
    assert cached.trace_name == "homes"
    assert len(runner._run_cache) == 1


def test_single_worker_path():
    out = run_matrix_parallel(["homes"], ["Native"], scale=SCALE, max_workers=1)
    assert out[("homes", "Native")].metrics.requests > 0


def test_defaults_cover_paper_grid():
    out = run_matrix_parallel(scale=0.01, max_workers=2)
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
        got = _fingerprints(run_matrix_parallel(max_workers=workers, **grid))
        if base is None:
            base = got
        assert got == base, f"matrix differs at max_workers={workers}"


def test_batch_size_matches_object_path():
    """The parallel matrix (columnar driver in the workers) equals a
    per-pair replay on the reference object event loop."""
    batched = run_matrix_parallel(
        ["web-vm", "homes"], ["Native", "POD"], scale=SCALE, max_workers=2
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
