"""The paper's contribution: Select-Dedupe, iCache, and POD.

* :class:`MapTable` -- the Map table: LBA -> PBA indirection with
  m-to-1 reference counting and NVRAM accounting (Section III-B),
  defined in :mod:`repro.dedup.map_table`.
* :class:`IndexTable` -- the Index table: in-memory LRU of hot
  fingerprints with per-entry ``Count`` popularity (Section III-B),
  defined in :mod:`repro.dedup.index_table`.
* :mod:`repro.core.categorize` -- the three-way write-request
  categorisation of Figure 5.
* :mod:`repro.core.select_dedupe` -- the request-based selective
  deduplication scheme (Data Deduplicator + Request Redirector).
* :mod:`repro.core.icache` -- the adaptive index/read cache partition
  (Access Monitor + Swap Module, Section III-C).
* :mod:`repro.core.pod` -- POD = Select-Dedupe + iCache.
"""

from __future__ import annotations

from repro.dedup.map_table import MapTable
from repro.dedup.index_table import IndexTable, IndexEntry
from repro.core.categorize import Category, CategoryDecision, categorize_write
from repro.core.select_dedupe import SelectDedupe
from repro.core.icache import ICache, ICacheConfig
from repro.core.pod import POD
from repro.core.sar import SARDedupe

__all__ = [
    "SARDedupe",
    "MapTable",
    "IndexTable",
    "IndexEntry",
    "Category",
    "CategoryDecision",
    "categorize_write",
    "SelectDedupe",
    "ICache",
    "ICacheConfig",
    "POD",
]
