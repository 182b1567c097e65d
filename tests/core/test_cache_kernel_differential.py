"""The request-level cache kernels against the per-key chain they replaced.

iCache's per-request calls -- ``read_probe`` / ``read_fill`` for a
read, ``IndexTable.probe`` + ``on_index_misses`` for a write's lookups,
``IndexTable.apply`` for its admissions and invalidations,
``note_index_evictions`` for the ghost parking and
``IndexTable.restore_many`` inside an epoch's swap-in -- must leave
exactly the state the per-key chain (:mod:`reference_caches`, plus
``IndexTable.lookup`` / ``invalidate_pba`` one block at a time)
leaves.  Hypothesis drives both with the same mix of reads,
writes and epochs on a budget small enough that every cache and ghost
evicts, and compares after every step: the read and index LRU orders
(with each entry's PBA and Count), both ghost orders, the parked
entries, the PBA claims, every hit/miss/eviction counter and the epoch
timeline.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.ghost import GhostCache
from repro.cache.lru import LRUCache
from repro.constants import BLOCK_SIZE, INDEX_ENTRY_SIZE
from repro.core.icache import ICache, ICacheConfig
from repro.dedup.index_table import IndexTable
from repro.dedup.map_table import FREED, WROTE, Change

from tests.baselines.reference_caches import ReferenceICache, ReferenceIndexTable

#: A hot set that hits and a cold range wide enough to age keys out of
#: the ghost index (it stands in for a whole read cache of entries).
FPS = st.one_of(st.integers(1, 16), st.integers(17, 3000))
PBAS = st.one_of(st.integers(0, 12), st.integers(13, 400))

reads = st.tuples(st.just("r"), st.lists(PBAS, min_size=1, max_size=12))
#: A write: its chunk fingerprints, then its commit's change log --
#: written blocks and freed blocks (recycled or not) interleaved.
writes = st.tuples(
    st.just("w"),
    st.lists(FPS, min_size=1, max_size=12),
    st.lists(
        st.one_of(
            st.tuples(st.just(WROTE), PBAS, FPS),
            st.tuples(st.just(FREED), PBAS, st.booleans()),
        ),
        min_size=1,
        max_size=24,
    ),
)
epochs = st.just(("e",))
ops = st.lists(st.one_of(reads, writes, writes, epochs), min_size=1, max_size=60)
#: The ghost read cache is as large as the index cache, so it only
#: remembers a block once the index holds at least a block's worth of
#: entries (128): budgets on both sides of that line.
budgets = st.tuples(
    st.one_of(st.integers(1, 10), st.integers(128, 200)),  # index entries
    st.integers(min_value=0, max_value=4),  # read blocks
)


def _build(cls: type, index_entries: int, read_blocks: int) -> Tuple[Any, Any]:
    index_bytes = index_entries * INDEX_ENTRY_SIZE
    total = index_bytes + read_blocks * BLOCK_SIZE
    cache = cls(ICacheConfig(
        total_bytes=total,
        initial_index_fraction=index_bytes / total,
        step_fraction=0.25,
        min_fraction=0.0,
    ))
    table = (ReferenceIndexTable if cls is ReferenceICache else IndexTable)(cache.index)
    cache.attach_index_table(table)
    return cache, table


def _kernel_step(cache: Any, table: Any, op: Tuple[Any, ...], now: float) -> Any:
    if op[0] == "r":
        missing = cache.read_probe(op[1])
        cache.read_fill(set(missing))
        return missing
    if op[0] == "w":
        pbas, missed = table.probe(op[1])
        if missed:
            cache.on_index_misses(missed)
        changes: List[Change] = list(op[2])
        table.apply(changes)
        evicted = table.drain_evicted()
        if evicted:
            cache.note_index_evictions(evicted)
        dropped = [pba for kind, pba, arg in changes if kind == WROTE or arg]
        cache.read_remove_many(dropped)
        return pbas
    return cache.on_epoch(now)


def _reference_step(cache: Any, table: Any, op: Tuple[Any, ...], now: float) -> Any:
    if op[0] == "r":
        missing = [pba for pba in op[1] if not cache.read_lookup(pba)]
        for pba in set(missing):
            cache.read_insert(pba)
        return missing
    if op[0] == "w":
        pbas = []
        for fp in op[1]:
            entry = table.lookup(fp)
            if entry is None:
                cache.on_index_miss(fp)
            pbas.append(None if entry is None else entry.pba)
        for kind, pba, arg in op[2]:
            if kind == WROTE:
                table.insert(arg, pba)
                evicted = table.drain_evicted()
                if evicted:
                    cache.note_index_evictions(evicted)
                cache.read_remove(pba)
            elif arg:
                table.invalidate_pba(pba)
                cache.read_remove(pba)
        return pbas
    return cache.on_epoch(now)


def _state(cache: Any, table: Any) -> Dict[str, Any]:
    index = []
    for fp in cache.index.keys_lru_order():
        entry = table.peek(fp)
        assert entry is not None
        index.append((fp, entry.pba, entry.count))
    return {
        "read": cache.read.keys_lru_order(),
        "index": index,
        "claims": dict(table.pba_claims),
        "ghost_index": list(cache.ghost_index.keys_mru()),
        "ghost_read": list(cache.ghost_read.keys_mru()),
        "parked": {fp: (e.pba, e.count) for fp, e in cache.parked_index_entries().items()},
        "used": (cache.read.used_bytes, cache.index.used_bytes,
                 cache.ghost_read.used_bytes, cache.ghost_index.used_bytes),
        "counters": (
            cache.read.hits, cache.read.misses, cache.read.evictions,
            cache.index.hits, cache.index.misses, cache.index.evictions,
            cache.ghost_read.hits, cache.ghost_read.hits_total,
            cache.ghost_read.evictions_recorded,
            cache.ghost_index.hits, cache.ghost_index.hits_total,
            cache.ghost_index.evictions_recorded,
        ),
        "epochs": [e.as_dict() for e in cache.epoch_timeline],
        "stats": cache.stats(),
    }


#: Directed case: a one-entry index evicts into a 128-entry ghost
#: index until the ghost is full, then one write's evictions age out a
#: key that a later eviction of the same write parks again (its new
#: payload must stay parked); ghost hits then grow the index, whose
#: swap-in restores the parked entries.
GHOST_FULL = (
    [("w", [fp], [(WROTE, fp, fp)]) for fp in range(1, 130)]
    + [("w", [500], [(WROTE, 1000, 500), (WROTE, 1001, 1), (WROTE, 1002, 501)]),
       ("w", [1, 5, 6, 7, 8], [(FREED, 1002, True)]), ("e",), ("r", [1, 2, 3]), ("e",)]
)


@settings(max_examples=300, deadline=None)
@given(budget=budgets, workload=ops)
@example(budget=(1, 1), workload=GHOST_FULL)
def test_cache_kernels_match_per_key_chain(
    budget: Tuple[int, int], workload: List[Tuple[Any, ...]]
) -> None:
    kernel = _build(ICache, *budget)
    reference = _build(ReferenceICache, *budget)
    for k, op in enumerate(workload):
        now = 0.5 * (k + 1)
        got = _kernel_step(*kernel, op, now)
        want = _reference_step(*reference, op, now)
        assert got == want, (k, op)
        assert _state(*kernel) == _state(*reference), (k, op)


def test_reference_cache_is_the_per_key_chain() -> None:
    """The reference shares no code with the kernels it is compared
    with: none of its parts is a cache, Index table or iCache, and it
    has no batch method to reach."""
    cache, table = _build(ReferenceICache, 2, 1)
    assert isinstance(table, ReferenceIndexTable)
    for part in (cache, table, cache.read, cache.index, cache.ghost_read, cache.ghost_index):
        assert not isinstance(part, (ICache, IndexTable, LRUCache, GhostCache))
    for owner, names in (
        (cache.read, ("get_many", "put_many")),
        (cache.ghost_read, ("hit_many", "record_evictions")),
        (cache.ghost_index, ("hit_many", "record_evictions")),
        (table, ("restore_many", "apply")),
    ):
        assert not any(hasattr(owner, name) for name in names)
    for k, op in enumerate([
        ("w", [1, 2, 3], [(WROTE, 0, 1), (WROTE, 1, 2), (WROTE, 2, 3)]),
        ("r", [0, 1, 2, 3]),
        ("w", [1, 4], [(WROTE, 3, 4)]),
        ("e",), ("e",),
    ]):
        _reference_step(cache, table, op, float(k))
    assert cache.ghost_index.evictions_recorded > 0
