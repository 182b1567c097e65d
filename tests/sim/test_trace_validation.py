"""A malformed trace record is refused when the trace is built.

A :class:`~repro.traces.format.Trace` is its columns, validated once
as the records are interned: every check the event loop's
:class:`~repro.sim.request.IORequest` makes runs there, and both replay
loops then build their requests unchecked.  Hypothesis builds a valid
trace, puts one malformed record into it, and building the
:class:`Trace` must raise :class:`TraceError`, so no replay entry point
is ever handed one; each entry point replays the trace without it.  The
positive control replays a fixed trace on every entry point.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import SchemeConfig
from repro.cluster.replay import ClusterConfig, replay_cluster
from repro.core.pod import POD
from repro.errors import TraceError
from repro.sim.replay import ReplayConfig, replay_trace, replay_traces
from repro.sim.request import OpType
from repro.traces.format import Trace, TraceRecord

LOGICAL = 64


def _write(time: float, lba: int, fps: Tuple[int, ...]) -> TraceRecord:
    return TraceRecord(time, OpType.WRITE, lba, len(fps), fps)


def _read(time: float, lba: int, nblocks: int) -> TraceRecord:
    return TraceRecord(time, OpType.READ, lba, nblocks, None)


#: Each malformed shape, as a function of the time it arrives at.
#: Every one is in time order and inside the logical space.
MALFORMED: Dict[str, Callable[[float], TraceRecord]] = {
    "write with one fingerprint too few": lambda t: TraceRecord(
        t, OpType.WRITE, 4, 2, (7,)
    ),
    "write with one fingerprint too many": lambda t: TraceRecord(
        t, OpType.WRITE, 4, 2, (7, 8, 9)
    ),
    "write without fingerprints": lambda t: TraceRecord(t, OpType.WRITE, 4, 2, None),
    "read carrying fingerprints": lambda t: TraceRecord(t, OpType.READ, 4, 2, (7, 8)),
    "zero-block write": lambda t: TraceRecord(t, OpType.WRITE, 4, 0, ()),
    "zero-block read": lambda t: _read(t, 4, 0),
    "negative LBA": lambda t: _write(t, -1, (7, 8)),
    "negative time": lambda t: _write(-0.5, 4, (7, 8)),
}


@st.composite
def valid_records(draw: Any) -> List[TraceRecord]:
    records: List[TraceRecord] = []
    time = 0.0
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        time += draw(st.sampled_from([0.0, 0.001, 0.01]))
        n = draw(st.integers(min_value=1, max_value=4))
        lba = draw(st.integers(min_value=0, max_value=LOGICAL - n))
        if draw(st.booleans()):
            fps = tuple(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)))
            records.append(_write(time, lba, fps))
        else:
            records.append(_read(time, lba, n))
    return records


def _scheme() -> POD:
    return POD(SchemeConfig(logical_blocks=LOGICAL, memory_bytes=64 * 1024))


ENTRY_POINTS: Dict[str, Callable[[Trace, POD], Any]] = {
    "replay_trace": lambda trace, scheme: replay_trace(trace, scheme, ReplayConfig()),
    "replay_trace(batch_size=None)": lambda trace, scheme: replay_trace(
        trace, scheme, ReplayConfig(), batch_size=None
    ),
    "replay_traces": lambda trace, scheme: replay_traces([trace], scheme, ReplayConfig()),
    "replay_cluster": lambda trace, scheme: replay_cluster(
        [trace], [scheme], ClusterConfig(), ReplayConfig()
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@settings(max_examples=25, deadline=None)
@given(
    records=valid_records(),
    shape=st.sampled_from(sorted(MALFORMED)),
    where=st.floats(min_value=0.0, max_value=1.0),
)
def test_malformed_record_refused_before_planning(
    entry: str, records: List[TraceRecord], shape: str, where: float
) -> None:
    """Building the trace refuses the malformed record, so no entry
    point can plan it; the same trace without it replays there."""
    if shape == "negative time":
        # Time order holds only with the record first.
        position = 0
    else:
        position = int(where * len(records))
    time = records[position - 1].time if position else 0.0
    malformed = records[:position] + [MALFORMED[shape](time)] + records[position:]
    with pytest.raises(TraceError):
        Trace("malformed", malformed, logical_blocks=LOGICAL)
    if records:
        ENTRY_POINTS[entry](Trace("valid", records, logical_blocks=LOGICAL), _scheme())


@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_every_shape_refused_alone(shape: str) -> None:
    with pytest.raises(TraceError):
        Trace("malformed", [MALFORMED[shape](0.0)], logical_blocks=LOGICAL)


def test_valid_trace_replays_on_every_entry_point() -> None:
    """The positive control: the same shapes, well formed, replay."""
    trace = Trace(
        "valid",
        [_write(0.0, 4, (7, 8)), _read(0.01, 4, 2), _write(0.02, 10, (7, 8))],
        logical_blocks=LOGICAL,
    )
    for entry in sorted(ENTRY_POINTS):
        result = ENTRY_POINTS[entry](trace, _scheme())
        assert result.scheme_stats["write_blocks_deduped"] == 2, entry
