"""I/O Deduplication (Koller & Rangaswami, FAST'10) -- extension
baseline for Table I.

This scheme never removes writes from the I/O path: "The write
requests are still issued to disks even if their data has already been
stored on disks" (Section V).  Instead it exploits *content
similarity* on the read path: a content-addressed read cache means
that blocks with identical content, cached under one fingerprint,
serve hits for every LBA holding that content -- effectively enlarging
the read cache by the workload's duplication factor.

Our implementation reproduces the content-addressed caching component.
The original system additionally keeps duplicated copies on disk and
lets the head pick the nearest replica to cut seek latency; that
head-scheduling optimisation is orthogonal to the cache and is *not*
modelled (documented substitution -- it would require a continuous
head-position model shared with the disk queue, and Table I only needs
the scheme's policy profile: no write elimination, capacity
unchanged, static cache).

The index cache partition stores the LBA -> content fingerprint
metadata that content-addressed caching requires.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.base import DedupScheme, PlannedIO, SchemeConfig
from repro.sim.request import IORequest, OpType
from repro.storage.volume import VolumeOp, extents_to_ops


class IODedup(DedupScheme):
    """Content-addressed read caching; writes pass through untouched."""

    name = "I/O-Dedup"
    features = {
        "capacity_saving": False,
        "performance_enhancement": True,
        "small_writes_elimination": False,
        "large_writes_elimination": False,
        "cache_partitioning": "static",
    }

    def __init__(self, config: SchemeConfig) -> None:
        super().__init__(config)
        #: Content fingerprint currently stored at each PBA (what the
        #: original system tracks in its content-addressed metadata).
        self._pba_content: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # write path: compute fingerprints (for the content metadata) but
    # never deduplicate.
    # ------------------------------------------------------------------

    def _probe(
        self, fingerprints: Sequence[int]
    ) -> Tuple[List[Optional[int]], List[VolumeOp]]:
        # A miss only counts as a miss: no ghost-cache notification
        # (there is no adaptive cache to inform).
        assert self.index_table is not None
        return self.index_table.probe(fingerprints)[0], []

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
        # Track content at the written home locations for the
        # content-addressed read cache.
        assert request.fingerprints is not None
        pbas = self.map_table.translate_range(request.lba, request.nblocks)
        self._pba_content.update(zip(pbas, request.fingerprints))
        return ops, deduped

    # ------------------------------------------------------------------
    # read path: content-addressed cache lookup
    # ------------------------------------------------------------------

    def _process_read(self, request: IORequest, now: float) -> PlannedIO:
        self.reads_total += 1
        self.read_blocks_total += request.nblocks
        pbas = self.map_table.translate_range(request.lba, request.nblocks)
        keys: List[Any] = [self._cache_key(pba) for pba in pbas]
        # A key's outcome is the same at every position of one probe
        # (lookups never insert), so the missed keys identify the
        # missed blocks.
        missed = set(self.cache.read_probe(keys))
        missing = [pba for pba, key in zip(pbas, keys) if key in missed]
        hits = len(pbas) - len(missing)
        self.read_cache_hit_blocks += hits
        ops = extents_to_ops(OpType.READ, missing)
        self.read_extents_issued += len(ops)
        fill: List[Any] = [self._cache_key(pba) for pba in set(missing)]
        self.cache.read_fill(fill)
        return PlannedIO(delay=0.0, volume_ops=ops, cache_hit_blocks=hits)

    def _cache_key(self, pba: int) -> Tuple[str, int]:
        """Content-addressed cache key: the content fingerprint when
        known, else the block address."""
        fp = self._pba_content.get(pba)
        return ("c", fp) if fp is not None else ("p", pba)
