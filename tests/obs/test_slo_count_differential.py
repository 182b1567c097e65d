"""A replay's SLO verdict against the verdict over the full timeline.

A replay evaluates its SLO policy over the sampler's count document
(``TimelineSampler.as_dict(counts_only=True)``, handed to
:func:`repro.obs.slo.evaluate_slo` by ``ReplayScaffold.result``); a
report reader evaluates it over the full timeline document.  Both
loops share ``ReplayScaffold.result``, so the driver-vs-event-loop
bit-identity tests cannot see a verdict the count document gets
wrong.  Here hypothesis feeds two identical samplers one generated
run -- completions through ``note_requests`` (in chunks, with and
without volume ids) and ``note_node_request``, ``note_activity``
flags and ``annotate_interval`` intervals that may reach past the
last completion -- and requires the scaffold's ``slo_stats`` to equal
``evaluate_slo(policy, sampler.as_dict())``.  The policy mixes latency
and throughput objectives on run, volume and node scopes for all,
read and write traffic.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import SchemeConfig
from repro.baselines.native import Native
from repro.obs.slo import SloObjective, SloPolicy, evaluate_slo
from repro.obs.timeline import TimelineConfig, TimelineSampler
from repro.sim.replay import ReplayConfig, ReplayScaffold
from repro.traces.format import Trace

SCOPES = ["run", "volume:0", "volume:2", "node:0", "node:1"]

#: (is_read, nblocks, volume_id, node_id or -1, completion, response)
Row = Tuple[bool, int, int, int, float, float]


@st.composite
def row(draw: Any) -> Row:
    return (
        draw(st.booleans()),
        draw(st.integers(1, 8)),
        draw(st.integers(0, 2)),
        draw(st.sampled_from([-1, 0, 1])),
        draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
        draw(st.sampled_from([0.0, 1e-3, 0.01, 0.02, 0.3])),
    )


@st.composite
def objective(draw: Any, k: int) -> SloObjective:
    metric = draw(st.sampled_from(["latency", "throughput"]))
    threshold = draw(
        st.sampled_from([1e-3, 0.01, 0.05] if metric == "latency" else [0.5, 2.0, 8.0])
    )
    return SloObjective(
        name=f"o{k}",
        metric=metric,
        threshold=threshold,
        scope=draw(st.sampled_from(SCOPES)),
        op=draw(st.sampled_from(["all", "read", "write"])),
        target=draw(st.sampled_from([0.5, 0.9, 0.99])),
        burn_threshold=draw(st.sampled_from([0.5, 1.0, 2.0])),
    )


TIMES = st.floats(min_value=0.0, max_value=16.0, allow_nan=False)


@st.composite
def scenario(draw: Any) -> Tuple[Any, ...]:
    rows = draw(st.lists(row(), min_size=0, max_size=40))
    policy = SloPolicy(
        tuple(draw(objective(k)) for k in range(draw(st.integers(1, 4))))
    )
    config = TimelineConfig(
        window=draw(st.sampled_from([0.5, 1.0, 3.0])),
        origin=draw(st.sampled_from([0.0, 1.0])),
    )
    flags = draw(st.lists(
        st.tuples(TIMES, st.sampled_from(["rebuild", "migration"]),
                  st.sampled_from([0.25, 1.0])),
        max_size=4,
    ))
    intervals = draw(st.lists(
        st.tuples(st.sampled_from(["fail_slow", "stall"]), TIMES, TIMES)
        .map(lambda x: (x[0], min(x[1], x[2]), max(x[1], x[2]))),
        max_size=3,
    ))
    chunk = draw(st.integers(1, 16))
    volumes = draw(st.booleans())
    t_end = draw(st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
    return rows, policy, config, flags, intervals, chunk, volumes, t_end


def _feed(sampler: TimelineSampler, scen: Tuple[Any, ...]) -> float:
    """Note the scenario's run into ``sampler``; returns its end time."""
    rows, _policy, _config, flags, intervals, chunk, volumes, t_end = scen
    for start in range(0, len(rows), chunk):
        part: List[Row] = rows[start : start + chunk]
        cols = list(zip(*part))
        n = len(part)
        sampler.note_requests(
            np.array(cols[4], dtype=np.float64),
            is_read=np.array(cols[0], dtype=bool),
            nblocks=np.array(cols[1], dtype=np.int64),
            response=np.array(cols[5], dtype=np.float64),
            volume_id=np.array(cols[2], dtype=np.int64) if volumes else None,
            eliminated=np.zeros(n, dtype=bool),
            deduped_blocks=np.zeros(n, dtype=np.int64),
            cache_hit_blocks=np.zeros(n, dtype=np.int64),
            cross_volume_blocks=np.zeros(n, dtype=np.int64),
        )
        for is_read, nblocks, _vid, node, t, response in part:
            if node >= 0:
                sampler.note_node_request(
                    t, node_id=node, is_read=is_read, nblocks=nblocks,
                    response=response,
                )
    for t, name, value in flags:
        sampler.note_activity(t, name, value)
    for name, start, end in intervals:
        sampler.annotate_interval(name, start, end)
    return t_end


def _replay_verdict(scen: Tuple[Any, ...]) -> Any:
    """The verdict a replay reports: ``ReplayScaffold.result``'s."""
    policy, config = scen[1], scen[2]
    trace = Trace("slo", [], logical_blocks=8)
    scheme = Native(SchemeConfig(logical_blocks=8, memory_bytes=64 * 1024))
    scaffold = ReplayScaffold(
        [trace], [scheme], ReplayConfig(timeline=config, slo=policy),
        None, True, [0],
    )
    assert scaffold.sampler is not None
    t_end = _feed(scaffold.sampler, scen)
    return scaffold.result(t_end).slo_stats


@settings(max_examples=300, deadline=None)
@given(scenario())
def test_replay_verdict_matches_full_timeline(scen):
    policy, config = scen[1], scen[2]
    reference = TimelineSampler(config, policy=policy)
    reference.finish(_feed(reference, scen))
    expected = evaluate_slo(policy, reference.as_dict())
    assert _replay_verdict(scen) == expected


def test_interval_past_the_last_completion_is_evaluated():
    """A directed case: an interval reaching past the last completion
    adds windows the verdict counts (``windows_evaluated``) and
    annotates the violations inside it."""
    policy = SloPolicy((
        SloObjective("thr", "throughput", 4.0, scope="node:0", target=0.9),
        SloObjective("lat", "latency", 0.01, op="read", target=0.9),
    ))
    rows: List[Row] = [
        (True, 1, 0, 0, 0.5, 0.02),
        (False, 1, 1, 0, 3.5, 0.0),
    ]
    scen = (rows, policy, TimelineConfig(), [], [("stall", 1.0, 6.0)], 4, True, 4.0)
    got = _replay_verdict(scen)
    assert got["windows_evaluated"] == 5  # windows 0-3 and the stall's 4
    thr, lat = got["objectives"]
    assert [v["index"] for v in thr["violations"]] == [0, 1, 2, 3]
    assert thr["violations"][1]["annotations"] == ["stall"]
    assert lat["bad_total"] == 1 and lat["violations"][0]["annotations"] == []
