"""iDedup: latency-aware, capacity-oriented inline deduplication.

Srinivasan et al., FAST'12 -- the scheme POD positions itself against.
iDedup exploits *spatial locality*: it deduplicates only sequences of
consecutive duplicate blocks at least ``threshold`` blocks long (we
default to 8 chunks = 32 KB), so deduplicated data stays sequential on
disk and reads are not fragmented.  The flip side, which the paper
hammers on, is that small writes -- the majority of primary-storage
traffic and the most redundant part of it (Fig. 1) -- are never
deduplicated, so iDedup barely reduces the write traffic (Fig. 11)
and improves performance only marginally (Figs. 8, 9).

iDedup keeps its entire dedup metadata in memory (its design point:
"an in-memory fingerprint cache instead of a full on-disk index"), so
a lookup miss simply means "not a duplicate" -- same as POD, no disk
lookups.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from repro.baselines.base import DedupScheme
from repro.core.categorize import sequential_runs
from repro.sim.request import IORequest


class IDedup(DedupScheme):
    """Deduplicate only long sequential duplicate runs (large writes)."""

    name = "iDedup"
    features = {
        "capacity_saving": True,
        "performance_enhancement": False,
        "small_writes_elimination": False,
        "large_writes_elimination": True,
        "cache_partitioning": "static",
    }

    def _choose_dedupe(
        self, request: IORequest, duplicate_pbas: Sequence[Optional[int]]
    ) -> Set[int]:
        """Only sequential duplicate runs >= the iDedup threshold."""
        threshold = self.config.idedup_threshold
        chosen: Set[int] = set()
        for start, length in sequential_runs(duplicate_pbas):
            if length >= threshold:
                chosen.update(range(start, start + length))
        return chosen
