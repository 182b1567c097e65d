"""Select-Dedupe: the request-based selective deduplication scheme.

The write-path half of POD (Section III-B).  Two cooperating modules:

* the **Data Deduplicator** splits incoming write data into 4 KB
  chunks, fingerprints them (32 us/chunk charged by the hash engine),
  and resolves each fingerprint against the hot in-memory Index table
  -- a miss simply means "treat as unique"; POD never pays an on-disk
  index lookup;
* the **Request Redirector** applies the Figure-5 categorisation and
  commits the decision: categories 1 and 3 are deduplicated (Map-table
  update only for the redundant runs), category 2 is written to disk
  untouched so subsequent reads stay sequential.

Unlike iDedup, category 1 has no minimum size: a single fully
redundant 4 KB write is eliminated -- that is the performance-
sensitive small-write elimination the paper's title is about.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.baselines.base import DedupScheme, SchemeConfig
from repro.core.categorize import Category, categorize_write
from repro.obs.events import EventType, TraceLevel
from repro.sim.request import IORequest

_UNIQUE = Category.UNIQUE.value
_FULLY_REDUNDANT = Category.FULLY_REDUNDANT.value


class SelectDedupe(DedupScheme):
    """Selective request-based deduplication (POD's write path)."""

    name = "Select-Dedupe"
    features = {
        "capacity_saving": True,
        "performance_enhancement": True,
        "small_writes_elimination": True,
        "large_writes_elimination": True,
        "cache_partitioning": "static",
    }

    def __init__(self, config: SchemeConfig) -> None:
        super().__init__(config)
        #: Requests per Figure-5 category, indexed by ``Category.value``
        #: (a list: counting never hashes the enum).
        self._by_category: List[int] = [0] * len(Category)

    def _choose_dedupe(
        self, request: IORequest, duplicate_pbas: Sequence[Optional[int]]
    ) -> Set[int]:
        nchunks = len(duplicate_pbas)
        if (
            nchunks
            and self.obs.level < TraceLevel.CHUNK
            and self.config.select_threshold >= 1
        ):
            # Figure 5's two common cases, decided straight from the
            # probe result (a traced run always takes categorize_write,
            # whose runs the REQUEST_CLASSIFY event reports).
            misses = duplicate_pbas.count(None)
            if misses == nchunks:
                self._by_category[_UNIQUE] += 1
                return set()
            first = duplicate_pbas[0]
            if misses == 0 and first is not None and list(duplicate_pbas) == list(
                range(first, first + nchunks)
            ):
                self._by_category[_FULLY_REDUNDANT] += 1
                return set(range(nchunks))
        decision = categorize_write(duplicate_pbas, self.config.select_threshold)
        self._by_category[decision.category.value] += 1
        if self.obs.level >= TraceLevel.CHUNK:
            self.obs.emit(
                TraceLevel.CHUNK,
                self._obs_now,
                EventType.REQUEST_CLASSIFY,
                req_id=request.req_id,
                **decision.to_fields(request.nblocks),
            )
        return set(decision.dedupe_chunks)

    @property
    def category_counts(self) -> Dict[Category, int]:
        """Requests per Figure-5 category (workload diagnostics)."""
        return {c: self._by_category[c.value] for c in Category}

    def stats(self) -> dict:
        out = super().stats()
        for category, count in self.category_counts.items():
            out[f"category_{category.value}_{category.name.lower()}"] = count
        return out
