"""The node fold against the scalar ``record_node`` loop it replaces.

The cluster replay buffers measured completions as columns and folds
each batch with :meth:`MetricsCollector.record_columns` plus
:meth:`MetricsCollector.record_node_columns`, which carries each row's
owner node, net delay, remote lookups and remote duplicate blocks.
Here hypothesis drives one stream of completions through both the
scalar ``record`` + ``record_node`` pair and the two folds -- in
random chunk sizes -- and requires the same registry (bucket by
bucket, floats compared as hex, series in the same creation order),
the same node ids and per-node summaries, and the same timeline
document and SLO counts with a timeline armed on several nodes.  The
stream mixes:

* reads and writes on up to four nodes, first seen in any order, and
  rows the replay does not measure (left out of both);
* net delays of 0 (kept out of the ``net.delay`` histogram), on bucket
  edges, and in between;
* node-scope latency objectives beside run-scope ones.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.metrics.collector import Completions, MetricsCollector
from repro.obs.slo import SloObjective, SloPolicy
from repro.obs.timeline import TimelineConfig, TimelineSampler
from repro.sim.request import IORequest, OpType
from tests.obs.test_record_columns_differential import (
    ARRIVALS,
    EDGES,
    RESPONSES,
    THRESHOLDS,
    _hex,
)

NET_DELAYS = st.one_of(
    st.just(0.0),
    st.sampled_from(EDGES),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
)


@st.composite
def row(draw: Any) -> Tuple[Any, ...]:
    arrival = draw(ARRIVALS)
    return (
        draw(st.booleans()),  # is_read
        draw(st.integers(1, 16)),  # nblocks
        draw(st.integers(0, 3)),  # node_id
        arrival,
        arrival + draw(RESPONSES),  # completion
        draw(st.booleans()),  # eliminated
        draw(st.integers(0, 4)),  # cache_hit_blocks
        draw(st.integers(0, 4)),  # deduped_blocks
        draw(NET_DELAYS),  # net_delay
        draw(st.integers(0, 5)),  # remote_lookups
        draw(st.integers(0, 5)),  # remote_duplicate_blocks
        draw(st.sampled_from([True, True, True, False])),  # measured
    )


@st.composite
def objective(draw: Any, k: int) -> SloObjective:
    return SloObjective(
        name=f"o{k}",
        metric="latency",
        threshold=draw(st.sampled_from(THRESHOLDS)),
        scope=draw(st.sampled_from(["run", "node:0", "node:2"])),
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


def _collector(config: TimelineConfig, policy: SloPolicy, timeline: bool):
    collector = MetricsCollector()
    collector.track_nodes()
    sampler = TimelineSampler(config, policy=policy)
    if timeline:
        collector.attach_timeline(sampler)
    return collector, sampler


def _record(collector: MetricsCollector, rows: List[Tuple[Any, ...]]) -> None:
    for k, r in enumerate(rows):
        rd, nb, nid, arr, comp, el, hit, dd, delay, lookups, dups, measured = r
        if not measured:
            continue
        op = OpType.READ if rd else OpType.WRITE
        request = IORequest.raw(arr, op, 0, nb, None, k, 0)
        collector.record(request, arr, comp, el, hit, dd, 0)
        collector.record_node(
            request, nid, arr, comp, eliminated=el, cache_hit_blocks=hit,
            deduped_blocks=dd, net_delay=delay, remote_lookups=lookups,
            remote_duplicate_blocks=dups,
        )


def _fold(collector: MetricsCollector, rows: List[Tuple[Any, ...]], start: int) -> None:
    kept = [(start + k,) + r for k, r in enumerate(rows) if r[-1]]
    cols = list(zip(*kept)) if kept else [()] * 13
    completions = Completions(
        req_id=np.array(cols[0], dtype=np.int64),
        is_read=np.array(cols[1], dtype=bool),
        nblocks=np.array(cols[2], dtype=np.int64),
        volume_id=np.zeros(len(kept), dtype=np.int64),
        arrival=np.array(cols[4], dtype=np.float64),
        completion=np.array(cols[5], dtype=np.float64),
        eliminated=np.array(cols[6], dtype=bool),
        cache_hit_blocks=np.array(cols[7], dtype=np.int64),
        deduped_blocks=np.array(cols[8], dtype=np.int64),
        cross_volume_blocks=np.zeros(len(kept), dtype=np.int64),
    )
    collector.record_columns(completions)
    collector.record_node_columns(
        completions,
        np.array(cols[3], dtype=np.int64),
        np.array(cols[9], dtype=np.float64),
        np.array(cols[10], dtype=np.int64),
        np.array(cols[11], dtype=np.int64),
    )


def _fold_chunked(collector: MetricsCollector, rows, chunks: List[int]) -> None:
    start = 0
    k = 0
    while start < len(rows):
        size = chunks[k % len(chunks)]
        _fold(collector, rows[start : start + size], start)
        start += size
        k += 1


def _observed(collector: MetricsCollector, sampler: TimelineSampler) -> Any:
    timeline = sampler.as_dict()
    return _hex({
        "registry": collector.registry.as_dict(include_buckets=True),
        "histogram_order": list(collector.registry.histograms()),
        "node_ids": collector.node_ids(),
        "nodes": collector.nodes_as_dict(),
        "timeline": timeline,
        "slo_counts": [w.get("slo_counts") for w in timeline["windows"]],
        "t_end": sampler.t_end,
    })


@settings(max_examples=300, deadline=None)
@given(scenario())
def test_node_fold_matches_scalar_record_node(scen):
    rows, policy, config, timeline, chunks = scen
    scalar, scalar_tl = _collector(config, policy, timeline)
    _record(scalar, rows)
    folded, folded_tl = _collector(config, policy, timeline)
    _fold_chunked(folded, rows, chunks)
    assert _observed(folded, folded_tl) == _observed(scalar, scalar_tl)


def test_first_seen_node_order_and_positive_delays_only():
    rows = [
        # node 2 first, then 0; only the 0.25 s delay is observed.
        (False, 4, 2, 0.0, 0.5, False, 0, 1, 0.25, 3, 1, True),
        (True, 2, 0, 0.1, 0.2, False, 1, 0, 0.0, 0, 0, True),
        (False, 1, 2, 0.2, 0.9, True, 0, 1, 0.0, 2, 0, True),
    ]
    config = TimelineConfig(window=1.0)
    folded, _ = _collector(config, SloPolicy(), True)
    _fold(folded, rows, 0)
    order = [name for name in folded.registry.histograms() if name.startswith("node.")]
    assert order[:3] == ["node.2.response.read", "node.2.response.write", "node.2.net.delay"]
    assert order[3] == "node.0.response.read"
    node2 = folded.node_as_dict(2)
    assert node2["net_delay_requests"] == 1 and node2["remote_lookups"] == 5
    assert node2["remote_duplicate_blocks"] == 1 and node2["write_blocks"] == 5
    assert folded.node_as_dict(0)["net_delay_requests"] == 0


def test_node_fold_needs_track_nodes():
    collector = MetricsCollector()
    empty = np.zeros(0, dtype=np.int64)
    rows = Completions(*([empty] * 10))
    with pytest.raises(SimulationError, match="track_nodes"):
        collector.record_node_columns(rows, empty, empty.astype(float), empty, empty)
