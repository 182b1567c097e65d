"""Cache substrate: LRU, ghost caches, ARC, partitioned DRAM.

* :mod:`repro.cache.lru` -- LRU of uniform-size entries under a byte
  budget (an entry-count bound), with eviction reporting.
* :mod:`repro.cache.ghost` -- metadata-only ghost cache (ARC-style
  recency history of evicted entries), the mechanism iCache uses to
  estimate the cost-benefit of growing each cache.
* :mod:`repro.cache.arc` -- the ARC replacement policy (Megiddo &
  Modha, FAST'03), cited by the paper as the inspiration for ghost
  hits; used as a related-work substrate and in tests.
* :mod:`repro.cache.partition` -- a fixed index/read split of one DRAM
  budget (what Full-Dedupe, iDedup and plain Select-Dedupe use).
"""

from __future__ import annotations

from repro.cache.lru import LRUCache
from repro.cache.ghost import GhostCache
from repro.cache.arc import ARCache
from repro.cache.partition import PartitionedCache, PartitionSizes

__all__ = ["LRUCache", "GhostCache", "ARCache", "PartitionedCache", "PartitionSizes"]
