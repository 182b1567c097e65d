"""The per-block write and read chains, kept as a test-only reference.

Before the schemes planned a request with one call per request into
each piece of state, a write went ``_process_write`` ->
``_lookup_fingerprint`` per chunk -> ``_choose_dedupe``
(``categorize_write`` for every Select-Dedupe request) ->
``_commit_write`` -> ``_map_dedupe`` / ``_write_target`` /
``_reclaim`` / ``_admit_to_index`` per block, each going through
``MapTable.translate`` / ``choose_write_target`` / ``set_mapping`` /
``clear_mapping`` and ``IndexTable.lookup`` / ``insert`` /
``drain_evicted``; a read translated, looked up and inserted block by
block.  The per-scheme side state was kept by per-block hooks: SAR's
SSD admission on every remap and invalidation on every physical
write, Full-Dedupe's and Post-Process's full/offline index on every
admission and reclaim, I/O-Dedup's content map per written block.

:func:`reference_class` puts that chain in front of a scheme class,
on the per-key cache chain of :mod:`reference_caches`, so the
differential tests can replay one workload through both and require
the same plans and the same final state.  Nothing here calls the
request-level kernels (the commit kernel, ``MapTable.translate_range``
/ ``rebind``, ``IndexTable.apply`` / ``restore_many``, the caches'
``read_probe`` / ``read_fill`` and the ghost batch methods), and the
schemes' request-level ``_on_changes`` hooks must never run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Type

from repro.baselines.base import DedupScheme, PlannedIO
from repro.baselines.full_dedupe import FullDedupe
from repro.baselines.iodedup import IODedup
from repro.baselines.postprocess import PostProcessDedupe
from repro.core.categorize import categorize_write
from repro.core.sar import SARDedupe
from repro.core.select_dedupe import SelectDedupe
from repro.obs.events import EventType, TraceLevel
from repro.sim.request import IORequest, OpType
from repro.storage.volume import VolumeOp, extents_to_ops
from tests.helpers import clear_mapping

from tests.baselines.reference_caches import attach_reference_index, reference_cache


class ReferenceWritePath(DedupScheme):
    """The per-block chains (first in the MRO -- see
    :func:`reference_class`)."""

    def __init__(self, config: Any) -> None:
        super().__init__(config)
        attach_reference_index(self)

    def _make_cache(self) -> Any:
        return reference_cache(super()._make_cache())

    def _volatile_reset(self) -> None:
        # A power failure rebuilt the cache and the Index table.
        attach_reference_index(self)
        super()._volatile_reset()

    # -- probe: one call per chunk -------------------------------------

    def _lookup_fingerprint(
        self, fingerprint: int
    ) -> Tuple[Optional[int], List[VolumeOp]]:
        assert self.index_table is not None
        entry = self.index_table.lookup(fingerprint)
        if isinstance(self, FullDedupe):
            if entry is not None:
                return entry.pba, []
            self.disk_index_lookups += 1
            ops: List[VolumeOp] = []
            if self.config.charge_index_io and self.regions.index_blocks > 0:
                slot = fingerprint % self.regions.index_blocks
                ops.append(VolumeOp(OpType.READ, self.regions.index_base + slot, 1))
            pba = self._full_index.get(fingerprint)
            if pba is None:
                return None, ops
            self.index_table.insert(fingerprint, pba)
            self.cache.note_index_evictions(self.index_table.drain_evicted())
            return pba, ops
        if isinstance(self, IODedup):
            return (entry.pba if entry is not None else None), []
        if entry is not None:
            return entry.pba, []
        self.cache.on_index_miss(fingerprint)
        return None, []

    # -- the write request ---------------------------------------------

    def _process_write(self, request: IORequest, now: float) -> PlannedIO:
        if isinstance(self, SARDedupe):
            self._pending_ssd_writes = 0
        self.writes_total += 1
        self.write_blocks_total += request.nblocks
        assert request.fingerprints is not None

        delay = 0.0
        extra_ops: List[VolumeOp] = []
        if self.uses_fingerprints:
            delay = self.hash_engine.delay_for(request.nblocks)
            duplicate_pbas: List[Optional[int]] = []
            for fp in request.fingerprints:
                pba, ops = self._lookup_fingerprint(fp)
                extra_ops.extend(ops)
                duplicate_pbas.append(pba)
        else:
            duplicate_pbas = [None] * request.nblocks

        dedupe_idx = self._choose_dedupe(request, duplicate_pbas)
        if self.decision_hook is not None:
            self.decision_hook(request, duplicate_pbas, dedupe_idx)
        if self.quarantined_lbas:
            bypassed = {
                i for i in dedupe_idx
                if request.lba + i in self.quarantined_lbas
            }
            if bypassed:
                self.dedupe_bypass_writes += len(bypassed)
                dedupe_idx = dedupe_idx - bypassed
        write_ops, deduped_idx = self._commit_write(request, duplicate_pbas, dedupe_idx)
        eliminated = not write_ops and request.nblocks > 0
        if eliminated:
            self.write_requests_removed += 1
        self.write_blocks_deduped += len(deduped_idx)
        return PlannedIO(
            delay=delay,
            volume_ops=extra_ops + write_ops,
            eliminated=eliminated,
            deduped_blocks=len(deduped_idx),
            deduped_idx=deduped_idx,
            ssd_write_blocks=(
                self._pending_ssd_writes if isinstance(self, SARDedupe) else 0
            ),
        )

    # -- commit: one chain per block -----------------------------------

    def _commit_write(
        self,
        request: IORequest,
        duplicate_pbas: Sequence[Optional[int]],
        dedupe_idx: Set[int],
    ) -> Tuple[List[VolumeOp], Tuple[int, ...]]:
        assert request.fingerprints is not None
        write_pbas: List[int] = []
        overwritten: Set[int] = set()
        deduped: List[int] = []

        for i, lba in enumerate(request.blocks()):
            fp = request.fingerprints[i]
            self.written_lbas.add(lba)

            if i in dedupe_idx:
                target = duplicate_pbas[i]
                assert target is not None
                if target in overwritten or self.content.read(target) != fp:
                    self.stale_dedupe_avoided += 1
                else:
                    self._map_dedupe(lba, target)
                    deduped.append(i)
                    continue

            if self.quarantined_lbas and lba in self.quarantined_lbas:
                self.quarantined_lbas.discard(lba)
                self.quarantine_heals += 1
            target = self._write_target(lba)
            overwritten.add(target)
            if self.index_table is not None:
                self.index_table.invalidate_pba(target)
            self.content.write(target, fp)
            self.cache.read_remove(target)
            self._on_physical_write(target)
            if self.uses_fingerprints:
                self._admit_to_index(fp, target)
            write_pbas.append(target)

        ops = extents_to_ops(OpType.WRITE, write_pbas)
        self.write_blocks_written += len(write_pbas)
        if isinstance(self, PostProcessDedupe):
            self._dirty.update(request.blocks())
        if isinstance(self, IODedup):
            for i, lba in enumerate(request.blocks()):
                self._pba_content[self.map_table.translate(lba)] = request.fingerprints[i]
        return ops, tuple(deduped)

    def _map_dedupe(self, lba: int, target: int) -> None:
        if self.map_table.translate(lba) != target:
            if target == self.regions.home_of(lba):
                freed = clear_mapping(self.map_table, lba)
            else:
                freed = self.map_table.set_mapping(lba, target)
            self._reclaim(freed)
        if isinstance(self, SARDedupe):
            if target == self.regions.home_of(lba) or target in self._ssd:
                return
            self._ssd.put(target, True)
            self._pending_ssd_writes += 1
            self.ssd_admitted_blocks += 1

    def _write_target(self, lba: int) -> int:
        home = self.regions.home_of(lba)
        current = self.map_table.translate(lba)
        target = self.map_table.choose_write_target(lba)
        if target is None:
            target = self.log_alloc.allocate()
            freed = self.map_table.set_mapping(lba, target)
            self._reclaim(freed, keep=target)
            self.redirected_writes += 1
        elif target == home and current != home:
            freed = clear_mapping(self.map_table, lba)
            self._reclaim(freed, keep=target)
        return target

    def _reclaim(self, freed: Optional[int], keep: Optional[int] = None) -> None:
        if freed is None or freed == keep:
            return
        if isinstance(self, FullDedupe):
            stale_fp = self._full_by_pba.pop(freed, None)
            if stale_fp is not None and self._full_index.get(stale_fp) == freed:
                del self._full_index[stale_fp]
        if isinstance(self, PostProcessDedupe):
            stale = self._offline_by_pba.pop(freed, None)
            if stale is not None and self._offline_index.get(stale) == freed:
                del self._offline_index[stale]
        if self.log_alloc.owns(freed) and self.log_alloc.is_allocated(freed):
            self.log_alloc.free(freed)
            self.content.discard(freed)
            self.cache.read_remove(freed)
            if self.index_table is not None:
                self.index_table.invalidate_pba(freed)
            self._on_physical_write(freed)

    def _on_physical_write(self, pba: int) -> None:
        if isinstance(self, SARDedupe):
            self._ssd.remove(pba)

    def _admit_to_index(self, fingerprint: int, pba: int) -> None:
        if isinstance(self, FullDedupe):
            stale_fp = self._full_by_pba.pop(pba, None)
            if stale_fp is not None and self._full_index.get(stale_fp) == pba:
                del self._full_index[stale_fp]
            old_pba = self._full_index.get(fingerprint)
            if old_pba is not None:
                self._full_by_pba.pop(old_pba, None)
            self._full_index[fingerprint] = pba
            self._full_by_pba[pba] = fingerprint
        if self.index_table is None:
            return
        self.index_table.insert(fingerprint, pba)
        evicted = self.index_table.drain_evicted()
        if evicted:
            self.cache.note_index_evictions(evicted)

    def _remap(self, lba: int, target: int) -> None:
        """Post-Process's offline remap, through the per-block chain."""
        self._map_dedupe(lba, target)

    def _on_changes(self, changes: List[Any]) -> None:
        raise AssertionError("the per-block reference never settles a change log")

    # -- the read request: one chain per block -------------------------

    def _process_read(self, request: IORequest, now: float) -> PlannedIO:
        self.reads_total += 1
        self.read_blocks_total += request.nblocks
        if not isinstance(self, (SARDedupe, IODedup)) and self.quarantined_lbas:
            self.quarantine_reads += sum(
                1 for lba in request.blocks() if lba in self.quarantined_lbas
            )
        pbas = [self.map_table.translate(lba) for lba in request.blocks()]
        missing: List[int] = []
        hits = 0
        ssd_hits = 0
        for pba in pbas:
            if self.cache.read_lookup(self._read_key(pba)):
                hits += 1
            elif isinstance(self, SARDedupe) and self._ssd.get(pba) is not None:
                ssd_hits += 1
            else:
                missing.append(pba)
        self.read_cache_hit_blocks += hits
        if isinstance(self, SARDedupe):
            self.ssd_served_blocks += ssd_hits
        elif not isinstance(self, IODedup) and self.obs.level >= TraceLevel.CHUNK:
            self.obs.emit(
                TraceLevel.CHUNK,
                now,
                EventType.CACHE_READ,
                req_id=request.req_id,
                hits=hits,
                misses=len(missing),
            )
        ops = extents_to_ops(OpType.READ, missing)
        self.read_extents_issued += len(ops)
        for pba in set(missing):
            self.cache.read_insert(self._read_key(pba))
        return PlannedIO(
            delay=0.0, volume_ops=ops, cache_hit_blocks=hits, ssd_read_blocks=ssd_hits
        )

    def _read_key(self, pba: int) -> Any:
        if isinstance(self, IODedup):
            fp = self._pba_content.get(pba)
            return ("c", fp) if fp is not None else ("p", pba)
        return pba


def _select_dedupe_reference_choice(
    self: SelectDedupe, request: IORequest, duplicate_pbas: Sequence[Optional[int]]
) -> Set[int]:
    """Select-Dedupe's policy as it was: ``categorize_write`` always."""
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


_CACHE: Dict[type, type] = {}


def reference_class(cls: Type[DedupScheme]) -> Type[DedupScheme]:
    """``cls`` with the per-block chains in place of the request-level
    kernels."""
    if cls not in _CACHE:
        namespace: Dict[str, object] = {"name": cls.name}
        if issubclass(cls, SelectDedupe):
            namespace["_choose_dedupe"] = _select_dedupe_reference_choice
        _CACHE[cls] = type(f"Reference{cls.__name__}", (ReferenceWritePath, cls), namespace)
    return _CACHE[cls]
