"""Native: the HDD-based storage system without deduplication.

The reference point every figure normalises to.  Writes land in place
at their home physical address; no fingerprints are computed, no index
exists, and the entire DRAM budget serves as a read cache (a system
without deduplication has no index to cache).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Set, Tuple

from repro.baselines.base import DedupScheme, PlannedIO, SchemeConfig
from repro.cache.partition import PartitionedCache
from repro.constants import BLOCK_SIZE
from repro.obs.trace import NULL_RECORDER
from repro.sim.request import IORequest, OpType
from repro.storage.volume import VolumeOp, extents_to_ops

#: Shared empty op list for the fast-path plans below.  Consumers of
#: a PlannedIO only iterate its op lists, so sharing one immutable-by-
#: convention instance avoids two list allocations per request.
_NO_OPS: List[VolumeOp] = []


class Native(DedupScheme):
    """No deduplication: every write goes to disk."""

    name = "Native"
    uses_fingerprints = False
    features = {
        "capacity_saving": False,
        "performance_enhancement": False,
        "small_writes_elimination": False,
        "large_writes_elimination": False,
        "cache_partitioning": "n/a",
    }

    def _make_cache(self) -> PartitionedCache:
        # All DRAM is read cache: there is no index to store.
        return PartitionedCache(self.config.memory_bytes, index_fraction=0.0)

    def _choose_dedupe(
        self, request: IORequest, duplicate_pbas: Sequence[Optional[int]]
    ) -> Set[int]:
        return set()

    # ------------------------------------------------------------------
    # batched fast path
    # ------------------------------------------------------------------

    def _batch_fast_ok(self) -> bool:
        """Is the specialised :meth:`plan_columns` below exactly the
        generic write/read path?

        Native never deduplicates, so ``MapTable.set_mapping`` is never
        called and the map stays empty for the scheme's whole lifetime:
        every LBA translates to itself, ``choose_write_target`` always
        returns the (unreferenced) home block, and the log allocator is
        never consulted.  The specialisation additionally requires the
        plain fixed-partition read cache with uniform 4 KB entries and
        none of the optional hooks (observation, spans, decision hook,
        quarantine, chunking) armed.
        """
        return (
            type(self) is Native
            and len(self.map_table) == 0
            and not self.quarantined_lbas
            and self.decision_hook is None
            and self.spans is None
            and self.chunker is None
            and self.obs is NULL_RECORDER
            and type(self.cache) is PartitionedCache
            and self.cache.read.capacity_bytes >= BLOCK_SIZE
        )

    def plan_columns(
        self,
        a: int,
        b: int,
        times: Sequence[float],
        is_write: Sequence[bool],
        lbas: Sequence[int],
        nblocks: Sequence[int],
        volume_ids: Sequence[int],
        fp_offsets: Sequence[int],
        fp_ids: Sequence[int],
        pool: Sequence[int],
        nvram_out: Optional[List[int]] = None,
        chunk_cols: Optional[Tuple[Any, Any]] = None,
    ) -> List[PlannedIO]:
        """Plan a window through the no-dedup fast path.

        Bit-identical to the generic path (pinned by the golden batch
        tests): with an always-empty map table the write commit per
        block reduces to recording the content, touching the written
        set and invalidating the read cache, and the write extent is a
        single contiguous :class:`VolumeOp`.  The read path inlines the
        LRU read cache (uniform ``BLOCK_SIZE`` entries), reproducing
        its hit/miss/eviction accounting exactly; counters accumulate
        in locals and flush once per call.  The read cache's values are
        all ``True``, so ``None`` from a lookup is a miss.  The map table never
        changes here, so every ``nvram_out`` entry is the same value.
        """
        if not self._batch_fast_ok():
            return super().plan_columns(
                a, b, times, is_write, lbas, nblocks, volume_ids,
                fp_offsets, fp_ids, pool, nvram_out, chunk_cols,
            )
        if nvram_out is not None:
            nvram_out.extend([self.nvram.bytes_used] * (b - a))
        read_lru = self.cache.read
        entries = read_lru._entries  # pod: ignore[POD007]
        e_get = entries.get
        e_pop = entries.pop
        e_popitem = entries.popitem
        move_to_end = entries.move_to_end
        slots = read_lru.slots
        held = len(entries)
        hits_c = misses_c = evictions_c = 0
        content = self.content._content  # pod: ignore[POD007]
        written_add = self.written_lbas.add
        reads_c = read_blocks_c = read_hits_c = read_extents_c = 0
        writes_c = write_blocks_c = 0
        write_op = OpType.WRITE
        read_op = OpType.READ
        out: List[PlannedIO] = []
        append = out.append

        for i in range(a, b):
            lba = lbas[i]
            n = nblocks[i]
            if is_write[i]:
                writes_c += 1
                write_blocks_c += n
                k = fp_offsets[i]
                if n == 1:
                    written_add(lba)
                    content[lba] = pool[fp_ids[k]]
                    if e_pop(lba, None) is not None:
                        held -= 1
                else:
                    for pba, fid in zip(range(lba, lba + n), fp_ids[k : k + n]):
                        written_add(pba)
                        content[pba] = pool[fid]
                        if e_pop(pba, None) is not None:
                            held -= 1
                append(PlannedIO(0.0, [VolumeOp(write_op, lba, n)], _NO_OPS))
            elif n == 1:
                # Single-block read: one probe, one extent on a miss.
                reads_c += 1
                read_blocks_c += 1
                if e_get(lba) is None:
                    misses_c += 1
                    read_extents_c += 1
                    entries[lba] = True
                    held += 1
                    while held > slots:
                        e_popitem(last=False)
                        held -= 1
                        evictions_c += 1
                    append(
                        PlannedIO(0.0, [VolumeOp(read_op, lba, 1)], _NO_OPS)
                    )
                else:
                    move_to_end(lba)
                    hits_c += 1
                    read_hits_c += 1
                    append(PlannedIO(0.0, _NO_OPS, _NO_OPS, False, 0, 1))
            else:
                reads_c += 1
                read_blocks_c += n
                missing: List[int] = []
                mappend = missing.append
                hits = 0
                for pba in range(lba, lba + n):
                    if e_get(pba) is None:
                        misses_c += 1
                        mappend(pba)
                    else:
                        move_to_end(pba)
                        hits_c += 1
                        hits += 1
                read_hits_c += hits
                if missing:
                    ops = extents_to_ops(read_op, missing)
                    read_extents_c += len(ops)
                    for pba in set(missing):
                        entries[pba] = True
                        held += 1
                        while held > slots:
                            e_popitem(last=False)
                            held -= 1
                            evictions_c += 1
                    append(PlannedIO(0.0, ops, _NO_OPS, False, 0, hits))
                else:
                    append(PlannedIO(0.0, _NO_OPS, _NO_OPS, False, 0, hits))

        read_lru.hits += hits_c
        read_lru.misses += misses_c
        read_lru.evictions += evictions_c
        self.reads_total += reads_c
        self.read_blocks_total += read_blocks_c
        self.read_cache_hit_blocks += read_hits_c
        self.read_extents_issued += read_extents_c
        self.writes_total += writes_c
        self.write_blocks_total += write_blocks_c
        self.write_blocks_written += write_blocks_c
        return out
