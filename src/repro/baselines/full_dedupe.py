"""Full-Dedupe: traditional full inline deduplication.

Deduplicates *every* redundant chunk, using a complete fingerprint
index.  The full index does not fit in DRAM (Section II-B: 1 TB of
4 KB chunks needs ~8 GB of index), so only the hot part lives in the
index cache; resolving a fingerprint that is in the full index but not
in the cache costs one random read in the on-disk index region -- the
classic index-lookup disk bottleneck.

Every hot-cache miss pays an on-disk lookup, present or absent: this
is the traditional full-dedup design the paper compares against
("most of the hash index entries must be stored on disks, where the
in-disk index-lookup operations can become a severe performance
bottleneck", Section II-B).  Bloom-filter-style absent-lookup
avoidance (Zhu et al., FAST'08) belongs to backup-optimised systems
and is deliberately not modelled -- Figure 3's strong dependence of
write latency on the index-cache size only exists without it.

Consequences reproduced here:

* maximum write elimination and capacity saving (Figs. 10, 11),
* read amplification from scattered partial deduplication, which can
  make Full-Dedupe *slower* than Native on workloads like homes
  (Figs. 8, 9),
* extra write-path latency from on-disk index lookups.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.base import DedupScheme, SchemeConfig
from repro.dedup.map_table import WROTE, Change
from repro.sim.request import IORequest, OpType
from repro.storage.volume import VolumeOp


class FullDedupe(DedupScheme):
    """Deduplicate every redundant chunk, whatever the cost."""

    name = "Full-Dedupe"
    features = {
        "capacity_saving": True,
        "performance_enhancement": False,
        "small_writes_elimination": True,
        "large_writes_elimination": True,
        "cache_partitioning": "static",
    }

    def __init__(self, config: SchemeConfig) -> None:
        super().__init__(config)
        #: The complete fingerprint index (conceptually on disk).
        self._full_index: Dict[int, int] = {}
        #: Reverse map for staleness invalidation of the full index.
        self._full_by_pba: Dict[int, int] = {}

    # ------------------------------------------------------------------

    def _probe(
        self, fingerprints: Sequence[int]
    ) -> Tuple[List[Optional[int]], List[VolumeOp]]:
        """Chunk by chunk: a full-index hit is promoted into the hot
        cache before the next chunk is probed, so a fingerprint repeated
        within one request hits the second time."""
        index = self.index_table
        assert index is not None
        pbas: List[Optional[int]] = []
        ops: List[VolumeOp] = []
        for fingerprint in fingerprints:
            entry = index.lookup(fingerprint)
            if entry is not None:
                pbas.append(entry.pba)
                continue
            # Hot-cache miss: the full index lives on disk, so
            # resolving the fingerprint (present *or* absent) costs one
            # random 4 KB read in the index region.
            self.disk_index_lookups += 1
            if self.config.charge_index_io and self.regions.index_blocks > 0:
                slot = fingerprint % self.regions.index_blocks
                ops.append(VolumeOp(OpType.READ, self.regions.index_base + slot, 1))
            pba = self._full_index.get(fingerprint)
            if pba is not None:
                index.insert(fingerprint, pba)
                self.cache.note_index_evictions(index.drain_evicted())
            pbas.append(pba)
        return pbas, ops

    def _choose_dedupe(
        self, request: IORequest, duplicate_pbas: Sequence[Optional[int]]
    ) -> Set[int]:
        """Everything redundant gets deduplicated."""
        return {i for i, pba in enumerate(duplicate_pbas) if pba is not None}

    # ------------------------------------------------------------------
    # keep the full index consistent with physical content
    # ------------------------------------------------------------------

    def _on_changes(self, changes: List[Change]) -> None:
        """Admit written chunks to the full index; drop the entries of
        blocks that were rewritten or lost their last reference."""
        full = self._full_index
        by_pba = self._full_by_pba
        for kind, pba, arg in changes:
            stale_fp = by_pba.pop(pba, None)
            if stale_fp is not None and full.get(stale_fp) == pba:
                del full[stale_fp]
            if kind == WROTE:
                old_pba = full.get(arg)
                if old_pba is not None:
                    by_pba.pop(old_pba, None)
                full[arg] = pba
                by_pba[pba] = arg

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["full_index_entries"] = len(self._full_index)
        return out
