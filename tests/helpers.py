"""Test-only helpers over the public surfaces of the program.

Nothing in ``src/`` needs these; they read or drive state through the
public API (``FingerprintRouter.route``, ``MapTable.translate`` /
``rebind`` / ``mapping``, ``DedupScheme.content``, ``RegionMap``'s
bases, ``LogAllocator.allocate``, span fields).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.baselines.base import DedupScheme
from repro.cluster.router import FingerprintRouter
from repro.dedup.map_table import MapTable
from repro.obs.spans import Span
from repro.storage.allocator import LogAllocator, RegionMap


def route_many(router: FingerprintRouter, fingerprints: Iterable[int]) -> List[int]:
    """:meth:`FingerprintRouter.route` of each fingerprint, in order."""
    return [router.route(fp) for fp in fingerprints]


def translate_many(table: MapTable, lbas: Iterable[int]) -> List[int]:
    """:meth:`MapTable.translate` of each LBA, in order."""
    return [table.translate(lba) for lba in lbas]


def clear_mapping(table: MapTable, lba: int) -> Optional[int]:
    """Return ``lba`` to its identity (home) mapping; the PBA that
    became unreferenced, if any."""
    current = table.mapping.get(lba)
    if current is None:
        return None
    return table.rebind(lba, current, None)


def allocate_run(allocator: LogAllocator, n: int) -> List[int]:
    """Allocate ``n`` blocks, contiguous when the frontier allows."""
    return [allocator.allocate() for _ in range(n)]


def is_index(regions: RegionMap, pba: int) -> bool:
    """Is ``pba`` in the on-disk index region?"""
    return regions.index_base <= pba < regions.swap_base


def is_swap(regions: RegionMap, pba: int) -> bool:
    """Is ``pba`` in iCache's swap region?"""
    return regions.swap_base <= pba < regions.total_blocks


def check_integrity(scheme: DedupScheme, expected: Dict[int, int]) -> List[str]:
    """Every LBA of ``expected`` (LBA -> fingerprint, kept by the test
    oracle) must read back its last-written content; one description
    per violation."""
    problems: List[str] = []
    for lba, fp in sorted(expected.items()):
        pba = scheme.map_table.translate(lba)
        stored = scheme.content.read(pba)
        if stored != fp:
            problems.append(f"LBA {lba} -> PBA {pba}: expected fp {fp}, found {stored}")
    return problems


def span_children(spans: List[Span]) -> Dict[int, List[Span]]:
    """Parent id -> children, for tree reconstruction."""
    out: Dict[int, List[Span]] = {}
    for span in spans:
        out.setdefault(span.parent, []).append(span)
    return out


def find_root(spans: List[Span], req_id: int) -> Optional[Span]:
    """The root (parent == -1) span of request ``req_id``, if any."""
    for span in spans:
        if span.parent == -1 and span.req_id == req_id:
            return span
    return None
