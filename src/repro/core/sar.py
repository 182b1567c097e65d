"""SAR: SSD-Assisted Restore optimisation on top of Select-Dedupe.

The paper's reference [18] (Mao et al., NAS'12) is the authors' own
answer to the read-amplification problem it cites in Section I: park
the *fragmented* deduplicated blocks on an SSD so that reads of
deduplicated data stop paying HDD seeks.  This extension composes that
idea with Select-Dedupe:

* **admission** -- whenever the Request Redirector maps an LBA onto a
  duplicate block *away from its home* (the only case that fragments
  later reads), the referenced block is copied to the SSD staging area
  in the background (the data is in DRAM at that moment, so admission
  costs one SSD write and no HDD traffic);
* **reads** -- translated blocks resident on the SSD are served from
  it (flat latency, no seeks); the remaining blocks coalesce into HDD
  extents as usual;
* **invalidation** -- an SSD copy is dropped when its physical block
  is overwritten or reclaimed; eviction is LRU over the configured
  SSD capacity (clean copies, nothing to write back).

Select-Dedupe already avoids *most* fragmentation by bypassing
scattered partial redundancy; SAR mops up the remainder that
category-1/3 dedup still introduces (visible in
``benchmarks/bench_restore_amplification.py``).
"""

from __future__ import annotations

from typing import List

from repro.baselines.base import PlannedIO, SchemeConfig
from repro.cache.lru import LRUCache
from repro.constants import BLOCK_SIZE
from repro.core.select_dedupe import SelectDedupe
from repro.dedup.map_table import REMAPPED, WROTE, Change
from repro.errors import ConfigError
from repro.sim.request import IORequest, OpType
from repro.storage.volume import extents_to_ops


class SARDedupe(SelectDedupe):
    """Select-Dedupe + SSD staging of fragmented deduplicated blocks."""

    name = "SAR"
    uses_ssd = True
    reads_remaps = True
    features = {
        "capacity_saving": True,
        "performance_enhancement": True,
        "small_writes_elimination": True,
        "large_writes_elimination": True,
        "cache_partitioning": "static",
    }

    def __init__(self, config: SchemeConfig) -> None:
        super().__init__(config)
        if config.ssd_bytes <= 0:
            raise ConfigError("SAR needs ssd_bytes > 0 in the scheme config")
        #: SSD residency: PBA -> True, LRU over the SSD capacity.
        self._ssd = LRUCache(config.ssd_bytes, default_entry_size=BLOCK_SIZE)
        self._pending_ssd_writes = 0
        self.ssd_admitted_blocks = 0
        self.ssd_served_blocks = 0

    # ------------------------------------------------------------------
    # admission on the write path
    # ------------------------------------------------------------------

    def _process_write(self, request: IORequest, now: float) -> PlannedIO:
        self._pending_ssd_writes = 0
        planned = super()._process_write(request, now)
        planned.ssd_write_blocks = self._pending_ssd_writes
        return planned

    # ------------------------------------------------------------------
    # reads: SSD-resident blocks skip the HDDs
    # ------------------------------------------------------------------

    def _process_read(self, request: IORequest, now: float) -> PlannedIO:
        self.reads_total += 1
        self.read_blocks_total += request.nblocks
        missing = self.cache.read_probe(
            self.map_table.translate_range(request.lba, request.nblocks)
        )
        cache_hits = request.nblocks - len(missing)
        ssd_lookup = self._ssd.get
        hdd_missing = [pba for pba in missing if ssd_lookup(pba) is None]
        ssd_hits = len(missing) - len(hdd_missing)
        self.read_cache_hit_blocks += cache_hits
        self.ssd_served_blocks += ssd_hits
        ops = extents_to_ops(OpType.READ, hdd_missing)
        self.read_extents_issued += len(ops)
        if hdd_missing:
            self.cache.read_fill(set(hdd_missing))
        return PlannedIO(
            delay=0.0,
            volume_ops=ops,
            cache_hit_blocks=cache_hits,
            ssd_read_blocks=ssd_hits,
        )

    # ------------------------------------------------------------------
    # admission and invalidation, from the write's change log
    # ------------------------------------------------------------------

    def _on_changes(self, changes: List[Change]) -> None:
        """Stage remapped references on the SSD; drop the SSD copy of a
        block whose content changed or was discarded."""
        ssd = self._ssd
        for kind, pba, arg in changes:
            if kind == REMAPPED:
                # A remapped reference: later reads of this LBA will
                # seek to a foreign location unless the block is staged
                # on the SSD (``arg`` is the LBA, i.e. its home block).
                if pba == arg or pba in ssd:
                    continue
                ssd.put(pba, True)
                self._pending_ssd_writes += 1
                self.ssd_admitted_blocks += 1
            elif kind == WROTE or arg:
                ssd.remove(pba)

    def _volatile_reset(self) -> None:
        # The SSD itself is non-volatile, but its residency map is
        # DRAM metadata in this design; rebuilding it lazily is safe
        # (copies are clean), so SAR drops it on power failure.
        self._ssd.clear()
        super()._volatile_reset()

    def stats(self) -> dict:
        out = super().stats()
        out["ssd_resident_blocks"] = len(self._ssd)
        out["ssd_admitted_blocks"] = self.ssd_admitted_blocks
        out["ssd_served_blocks"] = self.ssd_served_blocks
        return out
