"""The request-level write and read paths against the per-block chains
they replaced.

Every scheme plans a request with one call per request into each piece
of state (one index probe, one policy decision, the commit kernel and
its change log; a read's one translation, probe and fill).  The
per-block chains, on the per-key cache chain, live on test-only in
:mod:`reference_write_path` and :mod:`reference_caches`.  Here
hypothesis generates workloads built to reach the corner cases of
both, reads interleaved with writes, and each scheme replays them
twice -- fused and reference -- from the same starting state:

* a DRAM budget small enough that index inserts evict (and iCache's
  ghost index fills and hits), or an index large enough that the ghost
  read cache can remember a block,
* iCache / Post-Process epochs between requests,
* a write-ahead journal on the Map table,
* a Select-Dedupe threshold of 3 chunks or 1 (every redundant chunk
  deduplicated),
* requests planned one call each (``process``) or through the columnar
  driver's call (``plan_columns``) with its NVRAM samples,
* quarantined LBAs (dedupe bypass and healing),
* rewrites of earlier content runs, so fully redundant, sequential
  partial and scattered partial requests all occur, plus dedupe
  targets that an earlier chunk of the same request overwrites.

Each request's :class:`PlannedIO` must match field by field, and so
must the NVRAM meter's live and peak bytes after it and, under iCache,
the ghost index's key order and parked entries; then the final
``stats()``, Map-table snapshot, on-disk content, index
LRU order (with each entry's PBA and Count), read-cache order, ghost
and journal state, iCache epoch timeline, and the CHUNK-level trace
events.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Type

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.base import DedupScheme, PlannedIO, SchemeConfig
from repro.baselines.full_dedupe import FullDedupe
from repro.baselines.idedup import IDedup
from repro.baselines.iodedup import IODedup
from repro.baselines.native import Native
from repro.baselines.postprocess import PostProcessDedupe
from repro.constants import BLOCK_SIZE
from repro.core.icache import ICache
from repro.core.pod import POD
from repro.core.sar import SARDedupe
from repro.core.select_dedupe import SelectDedupe
from repro.errors import ReproError
from repro.obs.events import TraceLevel
from repro.obs.trace import TraceRecorder
from repro.sim.request import IORequest

from tests.baselines.reference_caches import ReferenceIndexTable
from tests.baselines.reference_write_path import reference_class

SCHEMES: Tuple[Type[DedupScheme], ...] = (
    Native,
    FullDedupe,
    IDedup,
    SelectDedupe,
    POD,
    SARDedupe,
    IODedup,
    PostProcessDedupe,
)

LOGICAL = 48
#: Content the workloads copy runs from, so rewrites of earlier runs
#: land as sequential duplicates.
PATTERN = tuple(range(1, 25))


@st.composite
def write_op(draw: Any) -> Tuple[Any, ...]:
    n = draw(st.integers(min_value=1, max_value=8))
    lba = draw(st.integers(min_value=0, max_value=LOGICAL - n))
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=len(PATTERN) - n))
        fps = list(PATTERN[start : start + n])
        for k in range(n):
            if draw(st.integers(min_value=0, max_value=5)) == 0:
                fps[k] = draw(st.integers(min_value=100, max_value=104))
    else:
        fps = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
    return ("w", lba, tuple(fps))


@st.composite
def read_op(draw: Any) -> Tuple[Any, ...]:
    n = draw(st.integers(min_value=1, max_value=8))
    return ("r", draw(st.integers(min_value=0, max_value=LOGICAL - n)), n)


ops = st.one_of(
    write_op(),
    write_op(),
    write_op(),
    read_op(),
    read_op(),
    st.just(("e",)),
    st.tuples(
        st.just("q"),
        st.frozensets(st.integers(min_value=0, max_value=LOGICAL - 1), max_size=4),
    ),
)

setups = st.fixed_dictionaries(
    {
        "journal": st.booleans(),
        "traced": st.booleans(),
        # 128+ entries: the ghost read cache (sized like the index
        # cache) can remember a 4 KB block.
        "index_entries": st.one_of(st.integers(1, 12), st.integers(128, 140)),
        "read_blocks": st.integers(min_value=1, max_value=4),
        "log_fraction": st.sampled_from([0.5, 0.15]),
        "select_threshold": st.sampled_from([3, 1]),
        "driver": st.booleans(),
    }
)


def _build(cls: Type[DedupScheme], setup: Dict[str, Any]) -> DedupScheme:
    index_bytes = setup["index_entries"] * 32
    memory = index_bytes + setup["read_blocks"] * BLOCK_SIZE
    config = SchemeConfig(
        logical_blocks=LOGICAL,
        memory_bytes=memory,
        index_fraction=index_bytes / memory,
        idedup_threshold=2,
        select_threshold=setup["select_threshold"],
        log_fraction=setup["log_fraction"],
        icache_min_fraction=0.0,
        icache_step=0.25,
        ssd_bytes=2 * BLOCK_SIZE if issubclass(cls, SARDedupe) else 0,
    )
    scheme = cls(config)
    if setup["journal"]:
        scheme.enable_journal()
    if setup["traced"]:
        scheme.attach_observer(TraceRecorder(TraceLevel.CHUNK, max_events=None))
    return scheme


def _plan_fields(plan: PlannedIO) -> Tuple[Any, ...]:
    return (
        plan.delay,
        [(op.op, op.pba, op.nblocks) for op in plan.volume_ops],
        [(op.op, op.pba, op.nblocks) for op in plan.background_ops],
        plan.eliminated,
        plan.deduped_blocks,
        plan.cache_hit_blocks,
        plan.deduped_idx,
        plan.ssd_read_blocks,
        plan.ssd_write_blocks,
    )


def _columns(workload: List[Tuple[Any, ...]]) -> Dict[str, Any]:
    """The workload as the columnar driver's merged columns (rows that
    are not requests are never planned)."""
    cols: Dict[str, Any] = {
        "times": [], "is_write": [], "lbas": [], "nblocks": [],
        "volume_ids": [], "fp_offsets": [0], "fp_ids": [], "pool": [],
    }
    for k, op in enumerate(workload):
        cols["times"].append(0.01 * (k + 1))
        cols["is_write"].append(op[0] == "w")
        cols["lbas"].append(op[1] if op[0] in "wr" else 0)
        cols["nblocks"].append(len(op[2]) if op[0] == "w" else op[2] if op[0] == "r" else 1)
        cols["volume_ids"].append(0)
        if op[0] == "w":
            for fp in op[2]:
                cols["fp_ids"].append(len(cols["pool"]))
                cols["pool"].append(fp)
        cols["fp_offsets"].append(len(cols["fp_ids"]))
    return cols


def _after_request(scheme: DedupScheme) -> Tuple[Any, ...]:
    """What a request leaves that a later one may not overwrite: the
    NVRAM meter and, under iCache, the ghost index."""
    out: Tuple[Any, ...] = (scheme.nvram.bytes_used, scheme.nvram.peak_bytes)
    if hasattr(scheme.cache, "ghost_index"):
        out += (
            list(scheme.cache.ghost_index.keys_mru()),
            {fp: (e.pba, e.count) for fp, e in scheme.cache.parked_index_entries().items()},
        )
    return out


def _replay(
    scheme: DedupScheme, workload: List[Tuple[Any, ...]], driver: bool = False
) -> List[Any]:
    """Per-op outcomes; stops at the first error (recorded as such).

    With ``driver``, each request is planned by ``plan_columns`` over
    the workload's columns, and the NVRAM bytes it samples before the
    request are part of the outcome."""
    out: List[Any] = []
    cols = _columns(workload) if driver else None
    for k, op in enumerate(workload):
        now = 0.01 * (k + 1)
        try:
            if op[0] in "wr" and cols is not None:
                samples: List[int] = []
                (plan,) = scheme.plan_columns(k, k + 1, nvram_out=samples, **cols)
                out.append((_plan_fields(plan), samples, _after_request(scheme)))
            elif op[0] == "w":
                request = IORequest.write(time=now, lba=op[1], fingerprints=op[2], req_id=k)
                out.append((_plan_fields(scheme.process(request, now)), _after_request(scheme)))
            elif op[0] == "r":
                request = IORequest.read(time=now, lba=op[1], nblocks=op[2], req_id=k)
                out.append((_plan_fields(scheme.process(request, now)), _after_request(scheme)))
            elif op[0] == "e":
                if scheme.epoch_interval is not None:
                    out.append([(o.op, o.pba, o.nblocks) for o in scheme.on_epoch(now)])
            else:
                scheme.quarantine(set(op[1]))
        except ReproError as exc:
            out.append(("error", type(exc).__name__, str(exc)))
            break
    return out


def _state(scheme: DedupScheme) -> Dict[str, Any]:
    index: Optional[List[Any]] = None
    if scheme.index_table is not None:
        index = []
        for fp in scheme.index_table.lru.keys_lru_order():
            entry = scheme.index_table.peek(fp)
            assert entry is not None
            index.append((fp, entry.pba, entry.count))
    state: Dict[str, Any] = {
        "stats": scheme.stats(),
        "map": scheme.map_table.snapshot(),
        "refs": dict(scheme.map_table.refcounts),
        "content": [scheme.content.read(p) for p in range(scheme.regions.total_blocks)],
        "index": index,
        "index_claims": (
            dict(scheme.index_table.pba_claims) if scheme.index_table is not None else None
        ),
        "read_cache": scheme.cache.read.keys_lru_order(),
        "written": sorted(scheme.written_lbas),
        "quarantined": sorted(scheme.quarantined_lbas),
        "log": (scheme.log_alloc.allocated_count, scheme.log_alloc.free_count),
    }
    if hasattr(scheme.cache, "ghost_index"):
        state["epochs"] = [e.as_dict() for e in scheme.cache.epoch_timeline]
        state["ghost_index"] = list(scheme.cache.ghost_index.keys_mru())
        state["ghost_read"] = list(scheme.cache.ghost_read.keys_mru())
        state["parked"] = {
            fp: (e.pba, e.count) for fp, e in scheme.cache.parked_index_entries().items()
        }
    journal = scheme.map_table.journal
    if journal is not None:
        state["journal"] = (journal.records_appended, journal.replay())
    if isinstance(scheme.obs, TraceRecorder):
        state["events"] = [(e.t, e.etype, e.fields) for e in scheme.obs.events]
    return state


#: Directed cases on top of the generated ones.  First, an earlier
#: chunk of the same request rewrites the block a later chunk would
#: dedupe onto (with the content it already held), once through a
#: quarantine bypass and once through a Figure-5 run that leaves the
#: first chunk out: only the intra-request overwrite check can tell
#: these apart.  Then the commit paths random workloads rarely reach.
PLAIN = {"journal": False, "traced": False, "index_entries": 12,
         "read_blocks": 2, "log_fraction": 0.5, "select_threshold": 3,
         "driver": False}
REWRITE_BYPASSED = [("w", 0, (1,)), ("q", frozenset({0})), ("w", 0, (1, 1))]
REWRITE_OUTSIDE_RUN = [("w", 0, (1, 2, 3)), ("w", 1, (2, 5, 1, 2, 3))]
#: Redirect then recycle: LBAs 0-1 are redirected to log blocks
#: (their homes are shared), read into the cache, then return home
#: once the sharers move away, recycling the log blocks.
RECYCLE = [("w", 0, (1, 2)), ("w", 2, (1, 2)), ("w", 0, (5, 6)), ("r", 0, 2),
           ("w", 2, (7, 8)), ("w", 0, (9, 10)), ("r", 0, 4)]
#: A log block shared by two LBAs is never overwritten in place.
SHARED_LOG_BLOCK = [("w", 0, (1, 2)), ("w", 2, (1, 2)), ("w", 0, (5, 6)),
                    ("w", 4, (5, 6)), ("w", 0, (7, 8)), ("r", 0, 6)]
#: A no-op remap (the LBA already resolves to its duplicate) still
#: stages the block on SAR's SSD once the SSD has dropped it.
NOOP_REMAP = [("w", 0, (1, 2)), ("w", 2, (1, 2)), ("w", 10, (3, 4)),
              ("w", 12, (3, 4)), ("w", 2, (1, 2))]
#: SAR stages two log blocks on its SSD (LBAs 4-5 dedupe onto LBAs
#: 0-1's redirected copies); once every referencer moves away the log
#: blocks are recycled and their SSD copies must go with them.
SSD_RECYCLE = [("w", 0, (1, 2)), ("w", 2, (1, 2)), ("w", 0, (5, 6)), ("w", 4, (5, 6)),
               ("w", 4, (7, 8)), ("w", 2, (9, 10)), ("w", 0, (11, 12)), ("r", 0, 6)]
#: With every redundant chunk deduplicated, SAR's last request remaps
#: LBA 0 onto block 20 (staging it on the 2-block SSD, which evicts
#: block 0) and then overwrites block 1, an SSD copy that lost its last
#: reference: the SSD must end holding block 20 alone, as the per-block
#: chain leaves it (removals first would keep block 0 too).
EVERY_CHUNK = dict(PLAIN, select_threshold=1, driver=True)
SSD_REMAP_THEN_OVERWRITE = [("w", 0, (1,)), ("w", 1, (2,)), ("w", 10, (1,)),
                            ("w", 11, (2,)), ("w", 11, (9,)), ("w", 20, (3,)),
                            ("w", 0, (3, 4)), ("r", 0, 2)]
#: One request adds a Map-table entry (LBA 0 is redirected: its home
#: is shared) and then drops one (LBA 1 returns home): the NVRAM peak
#: is the count between the two blocks, not either end's.
PEAK_INSIDE_REQUEST = [("w", 0, (1,)), ("w", 5, (1,)), ("w", 1, (1,)), ("w", 0, (8, 9))]
#: A one-entry Index table evicts fingerprint 1 twice within one
#: request: iCache's ghost index must park the entry of its second
#: copy (block 2), not the first.
ONE_INDEX_ENTRY = dict(PLAIN, index_entries=1)
EVICTED_TWICE = [("w", 0, (1, 2, 1, 2)), ("w", 8, (3,))]
#: The log region (7 blocks) runs out mid-request, after 7 of 8
#: redirected blocks were committed: the state they left must match.
SMALL_LOG = dict(PLAIN, log_fraction=0.15)
LOG_EXHAUSTED = [("r", 0, 8), ("w", 0, tuple(range(1, 9))), ("w", 8, tuple(range(1, 9))),
                 ("w", 0, tuple(range(11, 19)))]
#: Figure-5 boundaries (threshold 3): a run of exactly the threshold,
#: two runs that only sum to it, and fully redundant requests whose
#: targets are not contiguous (two qualifying runs; two short ones).
RUN_AT_THRESHOLD = [("w", 0, (1, 2, 3)), ("w", 10, (7, 1, 2, 3, 8))]
RUNS_SUM_TO_THRESHOLD = [("w", 0, (1, 2)), ("w", 20, (3,)), ("w", 10, (1, 2, 7, 3))]
SPLIT_FULLY_REDUNDANT = [("w", 0, (1, 2, 3)), ("w", 20, (4, 5, 6)),
                         ("w", 10, (1, 2, 3, 4, 5, 6)), ("w", 30, (1, 4))]


@pytest.mark.parametrize("cls", SCHEMES, ids=lambda c: c.name)
@settings(max_examples=60, deadline=None)
@given(setup=setups, workload=st.lists(ops, min_size=1, max_size=50))
@example(setup=PLAIN, workload=REWRITE_BYPASSED)
@example(setup=PLAIN, workload=REWRITE_OUTSIDE_RUN)
@example(setup=PLAIN, workload=RECYCLE)
@example(setup=PLAIN, workload=SHARED_LOG_BLOCK)
@example(setup=PLAIN, workload=NOOP_REMAP)
@example(setup=PLAIN, workload=SSD_RECYCLE)
@example(setup=SMALL_LOG, workload=LOG_EXHAUSTED)
@example(setup=PLAIN, workload=RUN_AT_THRESHOLD)
@example(setup=PLAIN, workload=RUNS_SUM_TO_THRESHOLD)
@example(setup=PLAIN, workload=SPLIT_FULLY_REDUNDANT)
@example(setup=EVERY_CHUNK, workload=SSD_REMAP_THEN_OVERWRITE)
@example(setup=ONE_INDEX_ENTRY, workload=EVICTED_TWICE)
@example(setup=EVERY_CHUNK, workload=PEAK_INSIDE_REQUEST)
@example(setup=dict(PLAIN, driver=True), workload=PEAK_INSIDE_REQUEST)
def test_fused_write_path_matches_per_block_chain(
    cls: Type[DedupScheme], setup: Dict[str, Any], workload: List[Tuple[Any, ...]]
) -> None:
    fused = _build(cls, setup)
    reference = _build(reference_class(cls), setup)
    driver = setup["driver"]
    assert _replay(fused, workload, driver) == _replay(reference, workload, driver)
    assert _state(fused) == _state(reference)


def test_reference_chain_is_the_per_block_one() -> None:
    """The reference really is a different code path: it probes chunk
    by chunk, reads block by block on the per-key cache chain, and
    never reaches the request-level kernels."""
    reference = _build(reference_class(POD), dict(PLAIN, index_entries=4, read_blocks=1))
    calls: List[str] = []

    def spy(owner: Any, name: str) -> None:
        original = getattr(owner, name)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls.append(name)
            return original(*args, **kwargs)

        setattr(owner, name, wrapper)

    assert isinstance(reference.index_table, ReferenceIndexTable)
    assert not isinstance(reference.cache, ICache)
    spy(reference.map_table, "translate_range")
    # The per-key chain has no request-level kernels to reach.
    for owner, names in (
        (reference.index_table, ("apply", "restore_many", "probe")),
        (reference.cache, ("read_probe", "read_fill", "read_remove_many")),
        (reference.cache.ghost_index, ("record_evictions", "hit_many")),
        (reference.cache.ghost_read, ("record_evictions", "hit_many")),
    ):
        assert not any(hasattr(owner, name) for name in names)
    for k, lba in enumerate((0, 8)):
        reference.process(IORequest.write(time=k, lba=lba, fingerprints=[1, 2, 3]), float(k))
    reference.process(IORequest.read(time=2.0, lba=0, nblocks=3), 2.0)
    assert reference.stats()["write_blocks_deduped"] == 3
    assert reference.stats()["read_cache_hit_blocks"] == 0
    assert calls == []
