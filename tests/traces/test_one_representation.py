"""A trace is its columns: one stored form, and no replay converts it.

The generator, ``salt_fingerprints`` and ``clone_tenants`` write
columns, ``Trace.records`` builds records on demand, and both replay
loops read the columns.  The spy below counts the only two conversions
there are -- records interned into columns
(:meth:`ColumnarTrace.from_records`) and records built from columns
(each :class:`TraceRecord` the records view builds) -- across every
replay entry point.  The
property checks that a trace built from records and one built from
columns are the same trace in every respect, report bytes included.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import SchemeConfig
from repro.cluster.replay import ClusterConfig, replay_cluster
from repro.core.pod import POD
from repro.experiments import runner
from repro.obs.report import build_run_report
from repro.sim.replay import ReplayConfig, replay_trace, replay_traces
from repro.sim.request import OpType
from repro.traces.columnar import ColumnarTrace
from repro.traces import format as format_module
from repro.traces.format import Trace, TraceRecord
from repro.traces.synthetic import (
    FP_FAMILY_STRIDE,
    FP_TENANT_STRIDE,
    MAIL,
    WEB_VM,
    clone_tenants,
    generate_trace,
    salt_fingerprints,
)

SCALE = 0.01


@pytest.fixture
def conversions(monkeypatch) -> List[str]:
    """Every conversion between records and columns, by kind."""
    seen: List[str] = []
    from_records = ColumnarTrace.from_records.__func__
    build = format_module.TraceRecord

    def spy_from_records(cls, *args, **kwargs):
        seen.append("records->columns")
        return from_records(cls, *args, **kwargs)

    def spy_record(*args, **kwargs):
        seen.append("columns->records")
        return build(*args, **kwargs)

    monkeypatch.setattr(ColumnarTrace, "from_records", classmethod(spy_from_records))
    monkeypatch.setattr(format_module, "TraceRecord", spy_record)
    runner.clear_run_cache()
    yield seen
    runner.clear_run_cache()


def _pod(logical_blocks: int, memory_bytes: int) -> POD:
    return POD(SchemeConfig(logical_blocks=logical_blocks, memory_bytes=memory_bytes))


def test_no_replay_converts_a_trace(conversions):
    base = generate_trace(WEB_VM, seed=3, scale=SCALE)
    salted = salt_fingerprints(generate_trace(MAIL, seed=3, scale=SCALE), FP_FAMILY_STRIDE)
    tenants = clone_tenants(salted, 3, seed=5)
    memory = WEB_VM.scaled(SCALE).memory_bytes
    logical = sum(t.logical_blocks for t in tenants)

    replay_trace(base, _pod(base.logical_blocks, memory))
    replay_trace(base, _pod(base.logical_blocks, memory), batch_size=None)
    replay_traces(tenants, _pod(logical, memory))
    replay_traces(tenants, _pod(logical, memory), batch_size=None)
    replay_cluster(
        [base] + tenants[:1],
        [_pod(base.logical_blocks, memory), _pod(tenants[0].logical_blocks, memory)],
        ClusterConfig(),
    )
    runner.execute(runner.RunSpec("homes", "POD", scale=SCALE))
    runner.execute(runner.RunSpec(
        ("web-vm", "mail"), "POD", scale=SCALE, tenants=runner.Tenants(copies=2)
    ))
    runner.execute(runner.RunSpec(
        "web-vm", "POD", scale=SCALE, tenants=runner.Tenants(copies=2), nodes=2
    ))
    runner.execute_many(
        [runner.RunSpec(name, "Select-Dedupe", scale=SCALE) for name in ("web-vm", "mail")],
        workers=1,
    )
    assert conversions == []


def test_records_view_is_the_conversion(conversions):
    """The spy sees the records view and the records constructor."""
    trace = generate_trace(WEB_VM, seed=3, scale=SCALE)
    rebuilt = Trace(trace.name, trace.records, trace.logical_blocks, trace.warmup_count)
    assert rebuilt == trace
    assert "records->columns" in conversions and "columns->records" in conversions


# ----------------------------------------------------------------------
# records-built == column-built
# ----------------------------------------------------------------------

LOGICAL = 96


@st.composite
def record_lists(draw: Any) -> Tuple[List[TraceRecord], int]:
    records: List[TraceRecord] = []
    time = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        time += draw(st.sampled_from([0.0, 0.0005, 0.004, 0.05]))
        n = draw(st.integers(min_value=1, max_value=6))
        lba = draw(st.integers(min_value=0, max_value=LOGICAL - n))
        if draw(st.booleans()):
            fps = tuple(draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)))
            records.append(TraceRecord(time, OpType.WRITE, lba, n, fps))
        else:
            records.append(TraceRecord(time, OpType.READ, lba, n, None))
    return records, draw(st.integers(min_value=0, max_value=len(records)))


def _columns_by_hand(records: List[TraceRecord], warmup: int) -> ColumnarTrace:
    """A reference interning, one record and one fingerprint at a time."""
    pool: List[int] = []
    ids: Dict[int, int] = {}
    fp_ids: List[int] = []
    offsets = [0]
    for rec in records:
        for fp in rec.fingerprints or ():
            if fp not in ids:
                ids[fp] = len(pool)
                pool.append(fp)
            fp_ids.append(ids[fp])
        offsets.append(len(fp_ids))
    return ColumnarTrace(
        name="prop",
        logical_blocks=LOGICAL,
        warmup_count=warmup,
        times=np.array([r.time for r in records], dtype=np.float64),
        ops=np.array([r.op is OpType.WRITE for r in records], dtype=np.uint8),
        lbas=np.array([r.lba for r in records], dtype=np.int64),
        nblocks=np.array([r.nblocks for r in records], dtype=np.int64),
        fp_offsets=np.array(offsets, dtype=np.int64),
        fp_ids=np.array(fp_ids, dtype=np.int64),
        pool=pool,
    )


def _report(trace: Trace, batch_size: Any) -> str:
    result = replay_trace(
        trace, _pod(LOGICAL, 64 * 1024), ReplayConfig(), batch_size=batch_size
    )
    return json.dumps(build_run_report(result, clock=lambda: 0.0), sort_keys=True)


@settings(max_examples=40, deadline=None)
@given(drawn=record_lists())
def test_records_built_equals_column_built(drawn: Tuple[List[TraceRecord], int]) -> None:
    records, warmup = drawn
    from_records = Trace("prop", records, LOGICAL, warmup)
    from_columns = Trace.of(_columns_by_hand(records, warmup))
    a, b = from_records.columns, from_columns.columns
    for col in ("times", "ops", "lbas", "nblocks", "fp_offsets", "fp_ids"):
        column = getattr(a, col)
        assert column.dtype == getattr(b, col).dtype
        np.testing.assert_array_equal(column, getattr(b, col))
    assert a.pool == b.pool
    assert from_records.records == records == from_columns.records
    assert from_records == from_columns
    for batch_size in (4096, None):
        assert _report(from_records, batch_size) == _report(from_columns, batch_size)


# ----------------------------------------------------------------------
# clone_tenants on columns == the record-level remap
# ----------------------------------------------------------------------


def _reference_clone(base: Trace, k: int, divergence: float, skew: float, seed: int):
    """Tenant ``k``'s records, remapped one record at a time."""
    distinct = dict.fromkeys(fp for rec in base.records for fp in rec.fingerprints or ())
    draws = np.random.default_rng([seed, k]).random(len(distinct))
    remap = {
        fp: fp + k * FP_TENANT_STRIDE
        for fp, draw in zip(distinct, draws)
        if draw < divergence
    }
    rate = float(k + 1) ** (-skew)
    return [
        TraceRecord(
            rec.time / rate, rec.op, rec.lba, rec.nblocks,
            None if rec.fingerprints is None
            else tuple(remap.get(fp, fp) for fp in rec.fingerprints),
        )
        for rec in base.records
    ]


@pytest.mark.parametrize("seed", range(8))
def test_clone_remaps_like_records_and_reinterns_collisions(seed):
    """Half the base values sit exactly one tenant stride above the
    other half, so tenant 1's remap lands private values on base values
    and its pool must be interned again."""
    low = [(i, OpType.WRITE, 4 * i, 2, (i + 1, i + 2)) for i in range(6)]
    high = [
        (6 + i, OpType.WRITE, 4 * i, 2, (i + 1 + FP_TENANT_STRIDE, i + 2))
        for i in range(6)
    ]
    base = Trace("base", [TraceRecord(float(t), *rest) for t, *rest in low + high], 64, 2)
    tenants = clone_tenants(base, 3, divergence=0.5, arrival_skew=0.5, seed=seed)
    assert tenants[0].records == base.records
    for k, tenant in enumerate(tenants[1:], start=1):
        expected = _reference_clone(base, k, 0.5, 0.5, seed)
        assert tenant.records == expected
        rebuilt = Trace(tenant.name, expected, 64, 2)
        assert tenant.columns.pool == rebuilt.columns.pool
        np.testing.assert_array_equal(tenant.columns.fp_ids, rebuilt.columns.fp_ids)
