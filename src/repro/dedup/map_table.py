"""The Map table: LBA -> PBA indirection with reference counting.

From Section III-B of the paper:

  "The Map table keeps all the information of the deduplicated write
  requests whose write data are already stored on disks. [...] The
  mapping relationship between the items in Map table and the items in
  Index table is m-to-1.  This means that an LBA can only be linked to
  a unique and distinctive physical data block but multiple LBAs may
  be linked to the same physical data block. [...] To prevent data
  loss in case of a power failure, the Map table data structure is
  stored in non-volatile RAM."

Only *redirected* LBAs have entries; an LBA without an entry maps to
its home physical block (in-place layout).  Reference counts on PBAs
implement the Request Redirector's consistency rule: a physical block
referenced by any LBA must never be overwritten in place.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import DedupError
from repro.storage.allocator import RegionMap
from repro.storage.journal import MapJournal
from repro.storage.nvram import NvramMeter


#: Entry kinds of the change log one write request's commit produces,
#: in commit order, as ``(kind, pba, arg)`` triples.  The log is how
#: the state owners outside the commit loop (the Index table, the read
#: cache, per-scheme side state) see the request's per-block changes
#: in their exact order, one call per request each.
#:
#: ``(WROTE, pba, fingerprint)`` -- a block was written with new content;
WROTE = 0
#: ``(FREED, pba, recycled)`` -- ``pba`` lost its last Map-table
#: reference; ``recycled`` is true when it was a log block handed back
#: to the allocator (its content discarded);
FREED = 1
#: ``(REMAPPED, pba, lba)`` -- ``lba`` now resolves to the existing
#: duplicate block ``pba`` (a deduplicated block).  Logged only for a
#: scheme that reads it (``DedupScheme.reads_remaps``, SAR's SSD
#: admission); no other owner does anything with a remap.
REMAPPED = 2

#: One change-log entry.
Change = Tuple[int, int, int]


class MapTable:
    """LBA -> PBA indirection over a :class:`RegionMap` home layout."""

    def __init__(self, regions: RegionMap, nvram: Optional[NvramMeter] = None) -> None:
        self.regions = regions
        #: Volume size (``RegionMap`` is frozen, so the derived
        #: property chain is read once, not per mapping update).
        self._total_blocks = regions.total_blocks
        self.nvram = nvram if nvram is not None else NvramMeter()
        self._map: Dict[int, int] = {}
        self._refs: Dict[int, int] = {}
        #: Optional write-ahead journal; attached by fault-tolerant
        #: configurations (see :mod:`repro.storage.journal`).
        self.journal: Optional[MapJournal] = None

    def attach_journal(self, journal: MapJournal) -> None:
        """Start write-ahead logging of every mutation.

        The journal is checkpointed with the current mapping so replay
        from this point reconstructs the full table.
        """
        journal.checkpoint(self._map)
        self.journal = journal

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of explicit (redirected) entries."""
        return len(self._map)

    def translate(self, lba: int) -> int:
        """Physical block currently backing ``lba``."""
        pba = self._map.get(lba)
        if pba is not None:
            return pba
        return self.regions.home_of(lba)

    def translate_range(self, lba: int, nblocks: int) -> List[int]:
        """Translate the run ``[lba, lba + nblocks)`` in one call (the
        read path's one Map-table call per request).

        The range is validated once up front; each block without an
        entry resolves to itself, its home block (``home_base`` is 0).
        """
        self.check_range(lba, nblocks)
        get = self._map.get
        return [get(block, block) for block in range(lba, lba + nblocks)]

    def check_range(self, lba: int, nblocks: int) -> None:
        """Raise :meth:`RegionMap.home_of`'s error for the first block of
        ``[lba, lba + nblocks)`` outside the logical space, if any."""
        end = self.regions.logical_blocks
        if lba < 0 or lba + nblocks > end:
            self.regions.home_of(lba if lba < 0 else max(lba, end))

    def is_redirected(self, lba: int) -> bool:
        return lba in self._map

    @property
    def mapping(self) -> "MappingProxyType[int, int]":
        """Read-only live view of the explicit LBA -> PBA entries.

        The sanctioned inspection surface for validators (the POD
        sanitizer re-derives refcounts from it); a
        :class:`~types.MappingProxyType` so observers cannot mutate
        table state.  Use :meth:`snapshot` for a detached copy.
        """
        return MappingProxyType(self._map)

    @property
    def refcounts(self) -> "MappingProxyType[int, int]":
        """Read-only live view of the per-PBA reference counts."""
        return MappingProxyType(self._refs)

    def refs(self, pba: int) -> int:
        """Number of explicit map entries referencing ``pba``."""
        return self._refs.get(pba, 0)

    def referencing_lbas(self, pba: int) -> Set[int]:
        """All LBAs explicitly mapped to ``pba`` (O(n); tests only)."""
        return {lba for lba, p in self._map.items() if p == pba}

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def set_mapping(self, lba: int, pba: int) -> Optional[int]:
        """Point ``lba`` at ``pba``.

        Returns the previously mapped PBA whose reference count
        dropped to zero (so the caller can reclaim it if it is a log
        block), or ``None``.

        Mapping an LBA to its own home block is stored as *no entry*
        (identity), keeping the table minimal -- the paper sizes NVRAM
        by deduplicated writes only.
        """
        home = self.regions.home_of(lba)  # validates the LBA range
        if pba < 0 or pba >= self._total_blocks:
            raise DedupError(f"PBA {pba} outside the volume")
        return self.rebind(lba, self._map.get(lba), None if pba == home else pba)

    def commit_state(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """The live entry and reference-count dicts, for the write
        path's commit kernel (``DedupScheme._commit_write``).

        The kernel applies a request's updates to them in place with
        :meth:`rebind`'s rules: it journals each mutation write-ahead,
        keeps the reference counts exact, and reports the request's net
        entry change to the NVRAM meter once (:meth:`NvramMeter.commit`).
        Fetch them per request: :meth:`restore_mapping` replaces them.
        """
        return self._map, self._refs

    def rebind(self, lba: int, current: Optional[int], pba: Optional[int]) -> Optional[int]:
        """Move ``lba`` from its explicit entry ``current`` to ``pba``.

        A Map-table update outside the commit kernel: ``None`` stands
        for the identity (home) mapping on either side.  Journals
        write-ahead, keeps the reference counts and the NVRAM meter,
        and returns the PBA whose last reference went away, or
        ``None``.
        """
        journal = self.journal
        refs = self._refs
        freed = None
        if current is not None:
            if journal is not None:
                journal.append_clear(lba)  # write-ahead
            del self._map[lba]
            self.nvram.remove(1)
            count = refs.get(current, 0)
            if count <= 0:
                raise DedupError(f"refcount underflow on PBA {current}")
            if count == 1:
                del refs[current]
                freed = current
            else:
                refs[current] = count - 1
        if pba is not None:
            if journal is not None:
                journal.append_set(lba, pba)  # write-ahead
            self._map[lba] = pba
            refs[pba] = refs.get(pba, 0) + 1
            self.nvram.add(1)
        return freed

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[int, int]:
        """Copy of the explicit (redirected) mapping."""
        return dict(self._map)

    def restore_mapping(self, mapping: Dict[int, int]) -> None:
        """Rebuild the table wholesale from a recovered mapping.

        Used by crash recovery: the journal replay yields the trusted
        LBA -> PBA mapping; reference counts are a pure function of it
        and are re-derived here.  The NVRAM meter is resynchronised and
        the journal (if attached) is checkpointed at the restored
        state.
        """
        refs: Dict[int, int] = {}
        for lba, pba in mapping.items():
            self.regions.home_of(lba)  # validates the LBA range
            if pba < 0 or pba >= self.regions.total_blocks:
                raise DedupError(f"recovered PBA {pba} outside the volume")
            refs[pba] = refs.get(pba, 0) + 1
        self._map = dict(mapping)
        self._refs = refs
        self.nvram.resync(len(self._map))
        if self.journal is not None:
            self.journal.checkpoint(self._map)

    # ------------------------------------------------------------------
    # write-target policy (the Request Redirector's consistency rule)
    # ------------------------------------------------------------------

    def choose_write_target(self, lba: int) -> Optional[int]:
        """Where may a *non-deduplicated* write of ``lba`` land in place?

        Returns a PBA safe to overwrite, or ``None`` if the caller
        must allocate a fresh (log) block:

        * the home block, when nothing references it -- the common
          in-place case (also reclaims a stale redirection);
        * the currently mapped block, when ``lba`` is its only
          referencer *and* the block lives in the log region (a
          private copy-on-write block, safe to update in place).  A
          block in the home region is never updated through a foreign
          mapping: it is some other LBA's home, and that LBA's
          implicit claim is not visible to the reference counts;
        * otherwise ``None`` -- every candidate is shared.
        """
        home = self.regions.home_of(lba)
        refs = self._refs
        if refs.get(home, 0) <= 0:
            return home
        current = self._map.get(lba)
        if (
            current is not None
            and current != home
            and self.regions.is_log(current)
            and refs.get(current) == 1
        ):
            return current
        return None

    # ------------------------------------------------------------------
    # single-entry update outside the write path
    # ------------------------------------------------------------------

    def remap(self, lba: int, target: int) -> Optional[int]:
        """Point ``lba`` at the existing duplicate block ``target``.

        A no-op when the LBA already resolves there (same-location
        redundancy).  Returns the block whose last reference went
        away, or ``None``.
        """
        home = self.regions.home_of(lba)
        current = self._map.get(lba)
        if target == (home if current is None else current):
            return None
        if target == home:
            return self.rebind(lba, current, None)
        if target < 0 or target >= self._total_blocks:
            raise DedupError(f"PBA {target} outside the volume")
        return self.rebind(lba, current, target)

    def live_pbas(self, written_lbas: Iterable[int]) -> Set[int]:
        """Distinct physical blocks backing the given logical blocks.

        This is the capacity-in-use measure of Figure 10: every
        written LBA resolves to exactly one physical block; shared
        blocks are counted once.
        """
        if not self._map:
            # No redirections: every LBA sits at its home block, which
            # is the LBA itself (``home_base`` is 0).
            return set(written_lbas)
        # Each LBA without an entry resolves to itself, its home block
        # (written LBAs were range-checked when they were written).
        get = self._map.get
        return {get(lba, lba) for lba in written_lbas}
