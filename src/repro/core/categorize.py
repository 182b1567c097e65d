"""The three-way categorisation of write requests (Figure 5).

Select-Dedupe classifies every write request with redundant data into:

* **Category 1** -- fully redundant, and the duplicate copies are
  stored *sequentially* on disk.  Deduplicate the entire request: no
  data hits the disk, only the Map table changes.
* **Category 2** -- partially redundant, with fewer redundant chunks
  than the threshold (3 in the paper's current design).  Do **not**
  deduplicate: the request must touch the disk anyway, and carving
  holes in it would fragment subsequent reads (read amplification).
* **Category 3** -- partially redundant with at least ``threshold``
  redundant chunks stored as sequential runs on disk.  Deduplicate
  those runs and write the remainder.

A request with no redundant chunks at all is *unique* (category 0 in
this implementation) and is written as-is.

"Sequential on disk" is decided over the candidate duplicate PBAs:
a maximal run of consecutive request chunks whose duplicate targets
are consecutive physical blocks.  Runs shorter than ``threshold`` are
not worth the fragmentation except in the fully-redundant case, where
a single run spanning the whole request always qualifies (this is what
lets POD eliminate the small -- 4 KB / 8 KB -- fully redundant writes
that iDedup deliberately ignores).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.constants import SELECT_DEDUPE_THRESHOLD
from repro.errors import DedupError


class Category(enum.Enum):
    """Write-request categories (Figure 5)."""

    #: No redundant chunks.
    UNIQUE = 0
    #: Fully redundant, duplicates sequential on disk.
    FULLY_REDUNDANT = 1
    #: Partially redundant below threshold (or scattered): bypass.
    SCATTERED_PARTIAL = 2
    #: Partially redundant, at/above threshold, sequential runs.
    SEQUENTIAL_PARTIAL = 3


@dataclass
class CategoryDecision:
    """Outcome of categorising one write request.

    Attributes
    ----------
    category:
        The assigned :class:`Category`.
    dedupe_chunks:
        Indices (into the request's chunk list) that Select-Dedupe
        will deduplicate.  Empty for UNIQUE and SCATTERED_PARTIAL.
    redundant_chunks:
        Indices of all chunks with a known duplicate, regardless of
        the decision (workload-analysis statistics).
    runs:
        The sequential duplicate runs found, as ``(start_index,
        length)`` pairs (diagnostics and tests).
    """

    category: Category
    dedupe_chunks: List[int] = field(default_factory=list)
    redundant_chunks: List[int] = field(default_factory=list)
    runs: List[Tuple[int, int]] = field(default_factory=list)

    def to_fields(self, nchunks: int) -> dict:
        """Flat payload for ``request.classify`` trace events
        (part of the stable event schema -- see docs/observability.md).

        ``nchunks`` is the request length in chunks (the decision
        itself only stores indices, not the request size).
        """
        return {
            "category": self.category.value,
            "category_name": self.category.name,
            "nchunks": nchunks,
            "redundant_chunks": len(self.redundant_chunks),
            "deduped_chunks": len(self.dedupe_chunks),
            "runs": [[s, l] for s, l in self.runs],
        }


def sequential_runs(duplicate_pbas: Sequence[Optional[int]]) -> List[Tuple[int, int]]:
    """Maximal runs of chunks whose duplicate targets are consecutive.

    ``duplicate_pbas[i]`` is the PBA of chunk *i*'s duplicate, or
    ``None`` when the chunk is unique.  A run is a maximal range of
    indices ``i..i+k`` where every chunk is redundant and
    ``pba[i+j] == pba[i] + j``.

    >>> sequential_runs([10, 11, 12, None, 7, 9])
    [(0, 3), (4, 1), (5, 1)]
    """
    runs: List[Tuple[int, int]] = []
    start: Optional[int] = None
    prev: Optional[int] = None
    for i, pba in enumerate(duplicate_pbas):
        if pba is None:
            if start is not None:
                runs.append((start, i - start))
                start = None
        elif start is None:
            start = i
        elif prev is None or pba != prev + 1:
            runs.append((start, i - start))
            start = i
        prev = pba
    if start is not None:
        runs.append((start, len(duplicate_pbas) - start))
    return runs


def categorize_write(
    duplicate_pbas: Sequence[Optional[int]],
    threshold: int = SELECT_DEDUPE_THRESHOLD,
) -> CategoryDecision:
    """Categorise one write request per Figure 5.

    Parameters
    ----------
    duplicate_pbas:
        Per-chunk duplicate target (from the Index table), ``None``
        for unique chunks.
    threshold:
        Minimum redundant chunks for category 3 (paper default 3).
    """
    if threshold < 1:
        raise DedupError(f"threshold must be >= 1, got {threshold}")
    n = len(duplicate_pbas)
    if n == 0:
        raise DedupError("cannot categorise an empty request")

    redundant = [i for i, p in enumerate(duplicate_pbas) if p is not None]
    runs = sequential_runs(duplicate_pbas)

    if not redundant:
        return CategoryDecision(Category.UNIQUE, [], [], runs)

    # Fully redundant and one sequential run covering the request.
    if len(redundant) == n and len(runs) == 1 and runs[0] == (0, n):
        return CategoryDecision(
            Category.FULLY_REDUNDANT, list(range(n)), redundant, runs
        )

    # Partially redundant (or fully redundant but scattered): only
    # sequential runs of at least `threshold` chunks are worth the
    # fragmentation they introduce.
    qualifying = [(s, l) for s, l in runs if l >= threshold]
    qualifying_chunks = sum(l for _, l in qualifying)
    if qualifying_chunks >= threshold:
        dedupe = [i for s, l in qualifying for i in range(s, s + l)]
        return CategoryDecision(
            Category.SEQUENTIAL_PARTIAL, dedupe, redundant, runs
        )

    return CategoryDecision(Category.SCATTERED_PARTIAL, [], redundant, runs)
