"""Post-processing (offline) deduplication -- Table I's fourth column.

El-Shimi et al. (USENIX ATC'12) deduplicate *after* the fact: the
foreground write path is identical to Native (no fingerprinting, no
index lookups, every write hits the disk), and a background job
periodically scans recently written data, fingerprints it, and remaps
logical blocks whose content already exists elsewhere on disk.

Consequences the paper's Table I and Section II-A attribute to this
design, all reproduced here:

* **capacity saving** -- yes: duplicate copies are reclaimed in the
  background (the paper's Table I credits the scheme with eliminating
  the stored copies of large duplicates, not their I/O);
* **no performance enhancement** -- foreground writes are never
  removed from the I/O path (``write_requests_removed`` stays 0), and
  the background scan adds disk traffic of its own;
* **lower effective I/O dedup ratio** -- Section II-A: "on-line
  deduplication is likely much more effective in reducing I/O traffic
  than post-processing deduplication", because same-location
  redundancy (a rewrite of identical content) leaves nothing for an
  offline pass to reclaim.

The background pass runs on the scheme's epoch hook: it re-reads the
blocks written since the last pass (charged as background disk ops),
fingerprints them (offline CPU, not on the latency path), and remaps
duplicates through the shared Map-table machinery -- including the
refcount consistency rules, so a deduplicated victim is never
overwritten in place afterwards.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.base import DedupScheme, SchemeConfig
from repro.dedup.map_table import FREED, Change
from repro.sim.request import IORequest, OpType
from repro.storage.volume import VolumeOp, extents_to_ops


class PostProcessDedupe(DedupScheme):
    """Native-speed writes; duplicates reclaimed by a background scan."""

    name = "Post-Process"
    uses_fingerprints = False  # nothing is hashed on the write path
    epoch_interval: Optional[float] = 2.0
    features = {
        "capacity_saving": True,
        "performance_enhancement": False,
        "small_writes_elimination": False,
        # Table I credits post-processing with large-writes
        # elimination: the *stored copies* of large duplicates go
        # away, off the critical path.
        "large_writes_elimination": True,
        "cache_partitioning": "static",
    }

    def __init__(self, config: SchemeConfig) -> None:
        super().__init__(config)
        #: LBAs written since the last background pass.
        self._dirty: Set[int] = set()
        #: Offline full index over stored content: fp -> pba.
        self._offline_index: Dict[int, int] = {}
        self._offline_by_pba: Dict[int, int] = {}
        # background-pass statistics
        self.scans = 0
        self.scan_blocks = 0
        self.offline_deduped_blocks = 0

    # ------------------------------------------------------------------
    # foreground path: exactly Native
    # ------------------------------------------------------------------

    def _choose_dedupe(
        self, request: IORequest, duplicate_pbas: Sequence[Optional[int]]
    ) -> Set[int]:
        return set()

    def _commit_write(
        self,
        request: IORequest,
        duplicate_pbas: Sequence[Optional[int]],
        dedupe_idx: Set[int],
    ) -> Tuple[List[VolumeOp], Tuple[int, ...]]:
        ops, deduped = super()._commit_write(request, duplicate_pbas, dedupe_idx)
        self._dirty.update(request.blocks())
        return ops, deduped

    # ------------------------------------------------------------------
    # the background deduplication pass
    # ------------------------------------------------------------------

    def on_epoch(self, now: float) -> List[VolumeOp]:
        """One offline pass over the blocks written since the last one.

        Returns the scan's read traffic (charged to the disks as
        background load, never to a request's latency).
        """
        if not self._dirty:
            return []
        self.scans += 1
        dirty, self._dirty = sorted(self._dirty), set()
        scan_pbas: List[int] = []

        for lba in dirty:
            pba = self.map_table.translate(lba)
            fingerprint = self.content.read(pba)
            if fingerprint is None:  # trimmed meanwhile
                continue
            scan_pbas.append(pba)
            self.scan_blocks += 1
            canonical = self._offline_index.get(fingerprint)
            if (
                canonical is not None
                and canonical != pba
                and self.content.read(canonical) == fingerprint
            ):
                # Duplicate found: remap this LBA onto the canonical
                # copy and reclaim its private block if possible.
                self._remap(lba, canonical)
                self.offline_deduped_blocks += 1
            else:
                # This copy becomes the canonical one.
                stale = self._offline_by_pba.pop(pba, None)
                if stale is not None and self._offline_index.get(stale) == pba:
                    del self._offline_index[stale]
                self._offline_index[fingerprint] = pba
                self._offline_by_pba[pba] = fingerprint

        return extents_to_ops(OpType.READ, scan_pbas)

    def _volatile_reset(self) -> None:
        # The dirty set is volatile: blocks written just before a
        # crash are simply not revisited (a missed opportunity, not a
        # correctness issue).  The offline index is on-disk metadata
        # and survives.
        self._dirty.clear()

    def _remap(self, lba: int, target: int) -> None:
        """Point ``lba`` at the canonical copy ``target`` and settle the
        block it frees before the pass moves on to the next LBA."""
        changes: List[Change] = []
        dropped: List[int] = []
        freed = self.map_table.remap(lba, target)
        if freed is not None:
            self._release(freed, changes, dropped)
        self._settle(changes, dropped)

    def _on_changes(self, changes: List[Change]) -> None:
        """A block that lost its last reference leaves the offline index."""
        for kind, pba, _arg in changes:
            if kind == FREED:
                stale = self._offline_by_pba.pop(pba, None)
                if stale is not None and self._offline_index.get(stale) == pba:
                    del self._offline_index[stale]

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["offline_scans"] = self.scans
        out["offline_scan_blocks"] = self.scan_blocks
        out["offline_deduped_blocks"] = self.offline_deduped_blocks
        out["offline_index_entries"] = len(self._offline_index)
        return out
