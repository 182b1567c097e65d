"""Determinism: identical inputs give bit-identical results.

Reproducibility is a first-class requirement for a simulation-based
reproduction -- every published number must be regenerable exactly.
"""

import pytest

from repro.baselines.base import SchemeConfig
from repro.sim.replay import ReplayConfig, replay_trace
from repro.traces.synthetic import HOMES, generate_trace
from tests.conftest import ALL_SCHEMES


@pytest.fixture(scope="module")
def trace():
    return generate_trace(HOMES, scale=0.02)


def run_once(trace, cls, config=ReplayConfig()):
    scheme = cls(
        SchemeConfig(logical_blocks=trace.logical_blocks, memory_bytes=128 * 1024)
    )
    return replay_trace(trace, scheme, config)


@pytest.mark.parametrize("cls", ALL_SCHEMES, ids=lambda c: c.name)
def test_replay_deterministic(trace, cls):
    a = run_once(trace, cls)
    b = run_once(trace, cls)
    assert a.metrics.as_dict() == b.metrics.as_dict()
    assert a.scheme_stats == b.scheme_stats
    assert a.capacity_blocks == b.capacity_blocks


def test_degraded_mode_deterministic(trace):
    cls = ALL_SCHEMES[0]
    a = run_once(trace, cls, ReplayConfig(failed_disk=1))
    b = run_once(trace, cls, ReplayConfig(failed_disk=1))
    assert a.metrics.as_dict() == b.metrics.as_dict()


def test_trace_generation_bit_identical():
    a = generate_trace(HOMES, scale=0.02)
    b = generate_trace(HOMES, scale=0.02)
    assert a.records == b.records
    assert a.warmup_count == b.warmup_count
