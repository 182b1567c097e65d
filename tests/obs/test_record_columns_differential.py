"""The batch fold against the scalar ``record`` loop it replaces.

The columnar driver buffers measured completions as columns and folds
each batch into the collector with one
:meth:`MetricsCollector.record_columns` call (histograms through
:func:`repro.obs.registry.observe_grouped`, the attached timeline
through :meth:`TimelineSampler.note_requests`).  The object loop and
the cluster keep calling :meth:`MetricsCollector.record` once per
completion.  Here hypothesis drives one stream of completions through
both -- the fold in random chunk sizes -- and requires the same
registry (bucket by bucket, floats compared as hex), the same first
arrival and last completion, the same timeline document and the same
SLO good/bad counts.  The stream mixes:

* reads and writes on several volumes, with and without per-volume
  tracking, and rows the replay does not measure (left out of both);
* responses of 0, exactly on bucket edges of both bucket families and
  on SLO thresholds, in the underflow and overflow buckets, and in
  between;
* completion times before the timeline's ``origin``;
* run- and volume-scope latency objectives for all, read and write.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SimulationError
from repro.metrics.collector import Completions, MetricsCollector
from repro.obs.registry import Histogram, default_latency_bounds, observe_grouped
from repro.obs.slo import SloObjective, SloPolicy
from repro.obs.timeline import TimelineConfig, TimelineSampler
from repro.sim.request import IORequest, OpType

#: Bucket edges of the run-wide (40/decade) and per-window (10/decade)
#: histograms.
EDGES = sorted(
    set(default_latency_bounds()) | set(default_latency_bounds(per_decade=10))
)
#: SLO thresholds; responses land exactly on them too.
THRESHOLDS = [1e-3, 0.01, 0.05] + EDGES[100:104]
RESPONSES = st.one_of(
    st.just(0.0),
    st.sampled_from(EDGES),
    st.sampled_from(THRESHOLDS),
    st.sampled_from([1e-9, 5e-7, 1e-6]),  # underflow bucket
    st.sampled_from([1e3, 1000.5, 4e4]),  # last edge and overflow
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
ARRIVALS = st.one_of(
    st.just(0.0),  # completion == response: edges land exactly
    st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
)


@st.composite
def row(draw: Any) -> Tuple[Any, ...]:
    arrival = draw(ARRIVALS)
    deduped = draw(st.integers(0, 4))
    return (
        draw(st.booleans()),  # is_read
        draw(st.integers(1, 16)),  # nblocks
        draw(st.integers(0, 3)),  # volume_id
        arrival,
        arrival + draw(RESPONSES),  # completion
        draw(st.booleans()),  # eliminated
        draw(st.integers(0, 4)),  # cache_hit_blocks
        deduped,
        draw(st.integers(0, deduped)),  # cross_volume_blocks
        draw(st.sampled_from([True, True, True, False])),  # measured
    )


@st.composite
def objective(draw: Any, k: int) -> SloObjective:
    return SloObjective(
        name=f"o{k}",
        metric="latency",
        threshold=draw(st.sampled_from(THRESHOLDS)),
        scope=draw(st.sampled_from(["run", "volume:0", "volume:2"])),
        op=draw(st.sampled_from(["all", "read", "write"])),
        target=0.9,
    )


@st.composite
def scenario(draw: Any) -> Tuple[Any, ...]:
    rows = draw(st.lists(row(), min_size=0, max_size=60))
    nobj = draw(st.integers(0, 4))
    policy = SloPolicy(tuple(draw(objective(k)) for k in range(nobj)))
    config = TimelineConfig(
        window=draw(st.sampled_from([0.25, 0.5, 1.0])),
        origin=draw(st.sampled_from([0.0, 2.0])),
    )
    chunks = draw(st.lists(st.integers(1, 64), min_size=1, max_size=8))
    return rows, policy, config, draw(st.booleans()), chunks


def _collector(config: TimelineConfig, policy: SloPolicy, volumes: bool):
    collector = MetricsCollector()
    if volumes:
        collector.track_volumes()
    sampler = TimelineSampler(config, policy=policy)
    collector.attach_timeline(sampler)
    return collector, sampler


def _record(collector: MetricsCollector, rows: List[Tuple[Any, ...]]) -> None:
    for k, (rd, nb, vid, arr, comp, el, hit, dd, cv, measured) in enumerate(rows):
        if not measured:
            continue
        op = OpType.READ if rd else OpType.WRITE
        request = IORequest.raw(arr, op, 0, nb, None, k, vid)
        collector.record(request, arr, comp, el, hit, dd, cv)


def _fold(collector: MetricsCollector, rows: List[Tuple[Any, ...]], start: int) -> None:
    kept = [(start + k,) + r for k, r in enumerate(rows) if r[-1]]
    cols = list(zip(*kept)) if kept else [()] * 11
    collector.record_columns(Completions(
        req_id=np.array(cols[0], dtype=np.int64),
        is_read=np.array(cols[1], dtype=bool),
        nblocks=np.array(cols[2], dtype=np.int64),
        volume_id=np.array(cols[3], dtype=np.int64),
        arrival=np.array(cols[4], dtype=np.float64),
        completion=np.array(cols[5], dtype=np.float64),
        eliminated=np.array(cols[6], dtype=bool),
        cache_hit_blocks=np.array(cols[7], dtype=np.int64),
        deduped_blocks=np.array(cols[8], dtype=np.int64),
        cross_volume_blocks=np.array(cols[9], dtype=np.int64),
    ))


def _fold_chunked(collector: MetricsCollector, rows, chunks: List[int]) -> None:
    start = 0
    k = 0
    while start < len(rows):
        size = chunks[k % len(chunks)]
        _fold(collector, rows[start : start + size], start)
        start += size
        k += 1


def _hex(obj: Any) -> Any:
    """``obj`` with every float spelled exactly (``float.hex``)."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _hex(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hex(v) for v in obj]
    return obj


def _observed(collector: MetricsCollector, sampler: TimelineSampler) -> Any:
    timeline = sampler.as_dict()
    return _hex({
        "registry": collector.registry.as_dict(include_buckets=True),
        "histogram_order": list(collector.registry.histograms()),
        "first_arrival": collector.first_arrival,
        "last_completion": collector.last_completion,
        "timeline": timeline,
        "slo_counts": [w.get("slo_counts") for w in timeline["windows"]],
        "t_end": sampler.t_end,
    })


@settings(max_examples=300, deadline=None)
@given(scenario())
def test_fold_matches_scalar_record(scen):
    rows, policy, config, volumes, chunks = scen
    scalar, scalar_tl = _collector(config, policy, volumes)
    _record(scalar, rows)
    folded, folded_tl = _collector(config, policy, volumes)
    _fold_chunked(folded, rows, chunks)
    assert _observed(folded, folded_tl) == _observed(scalar, scalar_tl)


def test_completion_before_arrival_raises():
    rows = [
        (True, 1, 0, 1.0, 1.5, False, 0, 0, 0, True),
        (False, 2, 0, 3.0, 2.5, False, 0, 0, 0, True),
    ]
    config = TimelineConfig()
    scalar, _ = _collector(config, SloPolicy(), True)
    with pytest.raises(SimulationError):
        _record(scalar, rows)
    folded, _ = _collector(config, SloPolicy(), True)
    with pytest.raises(SimulationError, match="request 1 completed"):
        _fold(folded, rows, 0)


def test_window_cap_raises():
    """Five windows against a cap of four: both paths refuse."""
    rows = [(True, 1, 0, t, t + 0.1, False, 0, 0, 0, True) for t in range(5)]
    config = TimelineConfig(window=1.0, max_windows=4)
    scalar, _ = _collector(config, SloPolicy(), False)
    with pytest.raises(ConfigError, match="exceeded 4 windows"):
        _record(scalar, rows)
    folded, _ = _collector(config, SloPolicy(), False)
    with pytest.raises(ConfigError, match="exceeded 4 windows"):
        _fold(folded, rows, 0)
    under, sampler = _collector(config, SloPolicy(), False)
    _fold(under, rows[:4], 0)
    assert sampler.as_dict()["windows_total"] == 4


def test_observe_grouped_keeps_record_order_in_large_batches():
    """A float total over samples of mixed magnitudes depends on the
    order of its additions, so a fold that regroups samples in any
    order other than record order shows in the hex of ``total``;
    hypothesis batches are small, this one is not."""
    rng = np.random.default_rng(20)
    groups = rng.integers(0, 4, size=5000)
    values = rng.random(5000) * 10.0 ** rng.integers(-6, 3, size=5000)
    bounds = default_latency_bounds()
    scalar = [Histogram(f"h{g}", bounds) for g in range(4)]
    for g, v in zip(groups.tolist(), values.tolist()):
        scalar[g].observe(v)
    folded = [Histogram(f"h{g}", bounds) for g in range(4)]
    observe_grouped(folded, groups, values)
    assert [_hex(h.as_dict(include_buckets=True)) for h in folded] == [
        _hex(h.as_dict(include_buckets=True)) for h in scalar
    ]
