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

_CHUNK = TraceLevel.CHUNK
_UNIQUE = Category.UNIQUE.value
_FULLY_REDUNDANT = Category.FULLY_REDUNDANT.value
_SCATTERED_PARTIAL = Category.SCATTERED_PARTIAL.value
_SEQUENTIAL_PARTIAL = Category.SEQUENTIAL_PARTIAL.value


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
        """Figure 5, decided from the probe result in one pass.

        The pass walks the maximal runs of chunks whose targets are
        consecutive blocks (:func:`~repro.core.categorize.sequential_runs`)
        and keeps the runs of at least ``select_threshold`` chunks: one
        run covering the request is category 1, any kept run makes it
        category 3, redundancy without one is category 2.  A traced run
        takes :func:`~repro.core.categorize.categorize_write`, whose runs
        the ``REQUEST_CLASSIFY`` event reports; it is also the reference
        the decisions here must equal.
        """
        nchunks = len(duplicate_pbas)
        threshold = self.config.select_threshold
        if not nchunks or threshold < 1 or self.obs.level >= _CHUNK:
            return self._categorize(request, duplicate_pbas)
        misses = duplicate_pbas.count(None)
        if misses == nchunks:
            self._by_category[_UNIQUE] += 1
            return set()
        if nchunks == 1:  # one redundant chunk is one run
            self._by_category[_FULLY_REDUNDANT] += 1
            return {0}
        chosen: Set[int] = set()
        runs = start = 0
        expect = -1  # the target that extends the open run; -1: none open
        for i, pba in enumerate(duplicate_pbas):
            if pba == expect:
                expect += 1
                continue
            if expect >= 0 and i - start >= threshold:
                chosen.update(range(start, i))
            if pba is None:
                expect = -1
            else:
                runs += 1
                start = i
                expect = pba + 1
        if misses == 0 and runs == 1:
            self._by_category[_FULLY_REDUNDANT] += 1
            return set(range(nchunks))
        if expect >= 0 and nchunks - start >= threshold:
            chosen.update(range(start, nchunks))
        self._by_category[_SEQUENTIAL_PARTIAL if chosen else _SCATTERED_PARTIAL] += 1
        return chosen

    def _categorize(
        self, request: IORequest, duplicate_pbas: Sequence[Optional[int]]
    ) -> Set[int]:
        """:func:`categorize_write`, counted and traced."""
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
