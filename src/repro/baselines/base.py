"""The scheme interface and the shared write/read plumbing.

Every deduplication scheme (Native, Full-Dedupe, iDedup, I/O-Dedup,
Select-Dedupe, POD) implements :class:`DedupScheme`.  The base class
owns the storage state common to all of them:

* the :class:`~repro.dedup.map_table.MapTable` (LBA -> PBA indirection
  with refcount consistency),
* the :class:`~repro.storage.volume.ContentStore` (what is physically
  on disk, used for integrity checking and capacity accounting),
* the :class:`~repro.storage.allocator.LogAllocator` (copy-on-write
  redirection when an in-place overwrite would corrupt a referenced
  block),
* the partitioned DRAM cache (fixed split or iCache),
* the :class:`~repro.dedup.fingerprint.HashEngine` delay model.

Subclasses customise two policy points on the write path:

* :meth:`DedupScheme._probe` -- how a write's chunk fingerprints are
  resolved to candidate duplicate PBAs (in-memory-only lookup by
  default, full index with on-disk lookups for Full-Dedupe, ...), and
* :meth:`DedupScheme._choose_dedupe` -- which redundant chunks to
  actually deduplicate (none, all, long runs only, Figure-5
  categories).

A request is planned with one call per request into each piece of
state.  A write is one probe of the hot Index table, one policy
decision, then the commit kernel: one loop over the blocks applies the
Map-table updates, the content and the log-block allocations in block
order (the NVRAM meter takes one update per request) and records a
change log, which the read cache, the Index table,
the ghost index and per-scheme side state then each take in one call
(:meth:`DedupScheme._on_changes` is the per-scheme hook).  A read is
one Map-table translation, one read-cache probe and one fill.  The
commit logic is shared and enforces the Request Redirector's
consistency rule: a physical block referenced through the Map table is
never overwritten in place; the write is redirected to a fresh log
block instead.  A stale duplicate target (its content changed between
lookup and commit, possible for intra-request duplicates) is detected
by a content check and falls back to a normal write, so deduplication
can never corrupt data.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.constants import (
    BLOCK_SIZE,
    FINGERPRINT_DELAY,
    IDEDUP_THRESHOLD,
    SELECT_DEDUPE_THRESHOLD,
)
from repro.dedup.chunking import OFFSET_BITS, ChunkingConfig, ChunkTransform
from repro.dedup.index_table import IndexTable
from repro.dedup.map_table import FREED, REMAPPED, WROTE, Change, MapTable
from repro.dedup.fingerprint import HashEngine
from repro.errors import ConfigError, DedupError
from repro.cache.api import DramCache
from repro.cache.partition import PartitionedCache
from repro.obs.events import EventType, TraceLevel
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.sim.request import IORequest, OpType
from repro.storage.allocator import LogAllocator, RegionMap
from repro.storage.journal import MapJournal
from repro.storage.nvram import NvramMeter
from repro.storage.volume import ContentStore, VolumeOp, extents_to_ops

#: Enum members read on every request, bound once: an attribute lookup
#: on an Enum class costs several times a module-global lookup.
_READ = OpType.READ
_WRITE = OpType.WRITE
_CHUNK = TraceLevel.CHUNK


@dataclass
class SchemeConfig:
    """Configuration shared by all schemes.

    Parameters mirror the paper's experimental setup (Section IV-A):
    a DRAM budget per trace, a 50/50 fixed index/read split for the
    non-POD schemes, a Select-Dedupe threshold of 3 chunks and an
    iDedup sequence threshold of 8 chunks (32 KB).
    """

    #: Size of the logical address space, in 4 KB blocks.
    logical_blocks: int
    #: Total DRAM budget for index + read caches, bytes.
    memory_bytes: int
    #: Fixed index-cache share of the DRAM budget (Fig. 3 sweeps this).
    index_fraction: float = 0.5
    #: Select-Dedupe category-3 threshold, chunks.
    select_threshold: int = SELECT_DEDUPE_THRESHOLD
    #: iDedup minimum duplicate-sequence length, chunks.
    idedup_threshold: int = IDEDUP_THRESHOLD
    #: Fingerprint compute delay per 4 KB chunk, seconds.
    fingerprint_delay: float = FINGERPRINT_DELAY
    #: Mechanical cost charged for one on-disk index lookup is an
    #: actual read in the index region, so no parameter is needed;
    #: this flag lets tests disable those reads.
    charge_index_io: bool = True
    #: Log region size as a fraction of the logical space.  Sized for
    #: the worst case (Full-Dedupe under heavy sharing redirects a
    #: large share of the overwrites of referenced home blocks).
    log_fraction: float = 0.50
    #: iCache epoch length, simulated seconds (POD only).  Long
    #: enough to integrate a few read/write phases per decision --
    #: shorter epochs repartition on noise and churn the caches (see
    #: benchmarks/bench_ablation_icache.py).
    icache_epoch: float = 4.0
    #: iCache repartition step, fraction of the DRAM budget (POD only).
    icache_step: float = 0.05
    #: iCache minimum share either cache keeps (POD only).
    icache_min_fraction: float = 0.10
    #: iCache benefit per ghost-read hit, seconds.  A re-cached block
    #: usually shortens an extent that is fetched anyway, so the
    #: marginal saving is about half a mechanical read.
    icache_read_miss_cost: float = 6e-3
    #: iCache benefit per ghost-index hit, seconds.  An additional
    #: detected duplicate eliminates a RAID-5 small write: data and
    #: parity read-modify-write, roughly four mechanical ops.
    icache_write_saved_cost: float = 20e-3
    #: SSD staging capacity for the SAR extension, bytes (0 = no SSD).
    ssd_bytes: int = 0
    #: Content-defined chunking (see :mod:`repro.dedup.chunking`).
    #: ``None`` keeps the paper's fixed 4 KB chunks -- the default path
    #: is bit-identical to a build without the chunking subsystem.
    chunking: Optional[ChunkingConfig] = None

    def __post_init__(self) -> None:
        if self.logical_blocks <= 0:
            raise ConfigError("logical space must be positive")
        if self.memory_bytes < 0:
            raise ConfigError("negative memory budget")
        if not (0.0 <= self.index_fraction <= 1.0):
            raise ConfigError("index fraction outside [0, 1]")
        if self.select_threshold < 1 or self.idedup_threshold < 1:
            raise ConfigError("thresholds must be >= 1")

    def make_regions(self) -> RegionMap:
        """Physical region layout for this logical space."""
        return RegionMap.for_logical_space(
            self.logical_blocks, log_fraction=self.log_fraction
        )


class PlannedIO:
    """What one request costs: a delay plus physical extent ops.

    Hand-written ``__slots__`` class (not a dataclass): one is built
    per processed request, squarely on the replay hot path.

    Attributes
    ----------
    delay:
        Processing time (fingerprinting) charged before any disk op
        is issued.
    volume_ops:
        Extent operations the request must wait for.
    background_ops:
        Extent operations that load the disks but do not gate the
        request's completion (iCache swap traffic).
    eliminated:
        True when a write request was fully deduplicated -- no data
        write reaches the disks (the Fig. 11 metric).
    deduped_blocks:
        Individual 4 KB blocks of this request whose write was
        eliminated by deduplication (accrues from partially
        deduplicated requests too -- distinct from ``eliminated``,
        which is a whole-request flag).
    cache_hit_blocks:
        Read blocks served from the read cache.
    deduped_idx:
        The chunk indices (into the request) that were deduplicated
        inline (``len(deduped_idx) == deduped_blocks``).  The
        multi-volume replay driver uses these to classify each
        eliminated block as cross-volume or intra-volume redundancy.
    ssd_read_blocks:
        Blocks served by the SSD tier (gates completion; SAR only).
    ssd_write_blocks:
        Blocks copied to the SSD tier in the background (SAR only).
    """

    __slots__ = (
        "delay",
        "volume_ops",
        "background_ops",
        "eliminated",
        "deduped_blocks",
        "cache_hit_blocks",
        "deduped_idx",
        "ssd_read_blocks",
        "ssd_write_blocks",
    )

    delay: float
    volume_ops: List[VolumeOp]
    background_ops: List[VolumeOp]
    eliminated: bool
    deduped_blocks: int
    cache_hit_blocks: int
    deduped_idx: Tuple[int, ...]
    ssd_read_blocks: int
    ssd_write_blocks: int

    def __init__(
        self,
        delay: float = 0.0,
        volume_ops: Optional[List[VolumeOp]] = None,
        background_ops: Optional[List[VolumeOp]] = None,
        eliminated: bool = False,
        deduped_blocks: int = 0,
        cache_hit_blocks: int = 0,
        deduped_idx: Tuple[int, ...] = (),
        ssd_read_blocks: int = 0,
        ssd_write_blocks: int = 0,
    ) -> None:
        self.delay = delay
        self.volume_ops = [] if volume_ops is None else volume_ops
        self.background_ops = [] if background_ops is None else background_ops
        self.eliminated = eliminated
        self.deduped_blocks = deduped_blocks
        self.cache_hit_blocks = cache_hit_blocks
        self.deduped_idx = deduped_idx
        self.ssd_read_blocks = ssd_read_blocks
        self.ssd_write_blocks = ssd_write_blocks

    def __repr__(self) -> str:
        return (
            f"PlannedIO(delay={self.delay!r}, volume_ops={self.volume_ops!r}, "
            f"background_ops={self.background_ops!r}, "
            f"eliminated={self.eliminated!r}, "
            f"deduped_blocks={self.deduped_blocks!r}, "
            f"cache_hit_blocks={self.cache_hit_blocks!r}, "
            f"deduped_idx={self.deduped_idx!r}, "
            f"ssd_read_blocks={self.ssd_read_blocks!r}, "
            f"ssd_write_blocks={self.ssd_write_blocks!r})"
        )


class DedupScheme(abc.ABC):
    """Base class for all deduplication schemes."""

    #: Human-readable scheme name (used in reports).
    name: str = "abstract"
    #: Whether the write path computes fingerprints at all.
    uses_fingerprints: bool = True
    #: Whether plans carry SSD traffic (a replay without
    #: ``ssd_params`` refuses such a scheme up front).
    uses_ssd: bool = False
    #: Table-I feature flags, overridden per scheme.
    features: Dict[str, object] = {}
    #: Simulated seconds between cache-management epochs, or ``None``.
    epoch_interval: Optional[float] = None
    #: Whether :meth:`_on_changes` reads ``REMAPPED`` entries; the
    #: commit kernel logs a deduplicated block's remap only then.
    reads_remaps: bool = False

    def __init__(self, config: SchemeConfig) -> None:
        self.config = config
        self.regions = config.make_regions()
        self.nvram = NvramMeter()
        self.map_table = MapTable(self.regions, self.nvram)
        self.content = ContentStore(self.regions.total_blocks)
        self.log_alloc = LogAllocator(self.regions.log_base, self.regions.log_blocks)
        #: The log region ``[start, end)``, read by every per-block
        #: commit (``RegionMap`` derives it through property chains).
        self._log_span = (self.regions.log_base, self.regions.index_base)
        self.hash_engine = HashEngine(config.fingerprint_delay)
        #: Optional content-defined chunking transform, applied to
        #: every write's fingerprints before dedup planning.  Stream-
        #: stateful (boundaries are content-defined across requests).
        self.chunker: Optional[ChunkTransform] = (
            ChunkTransform(config.chunking) if config.chunking is not None else None
        )
        self.cache: DramCache = self._make_cache()
        self.index_table: Optional[IndexTable] = (
            IndexTable(self.cache.index) if self.uses_fingerprints else None
        )
        if self.index_table is not None and hasattr(self.cache, "attach_index_table"):
            self.cache.attach_index_table(self.index_table)
        self.written_lbas: Set[int] = set()
        self._swap_cursor = 0
        # ---- degradation mode (fault recovery) -----------------------
        #: LBAs whose mapping could not be re-derived after a crash:
        #: reads of them are unverifiable and writes bypass
        #: deduplication until real data heals the map (extends POD's
        #: miss-as-unique philosophy).  Empty on the healthy path, so
        #: every guard is one truthiness test.
        self.quarantined_lbas: Set[int] = set()
        self.dedupe_bypass_writes = 0
        self.quarantine_heals = 0
        self.quarantine_reads = 0
        # ---- observability -------------------------------------------
        #: Attached trace recorder (NULL_RECORDER = disabled; every
        #: emission site guards on ``self.obs.level`` so the disabled
        #: path costs one integer compare).
        self.obs: TraceRecorder = NULL_RECORDER
        #: Optional per-decision observer called right after
        #: :meth:`_choose_dedupe` with ``(request, duplicate_pbas,
        #: chosen)``.  Observation only -- the write path ignores its
        #: return value.  The POD sanitizer installs its per-scheme
        #: policy check here (``--check-invariants``).
        self.decision_hook: Optional[
            Callable[[IORequest, Sequence[Optional[int]], Set[int]], None]
        ] = None
        #: Simulated time of the request currently being processed
        #: (timestamp source for events emitted below ``process``).
        self._obs_now: float = 0.0
        #: Attached span tracer (:class:`repro.obs.spans.SpanTracer`)
        #: and the current request's root span id -- set by the replay
        #: driver per request when ``--spans`` is armed.  ``None`` by
        #: default: the off path pays one ``is not None`` test per
        #: processed request.
        self.spans: Optional[Any] = None
        self.span_parent: int = -1
        # ---- counters -------------------------------------------------
        self.reads_total = 0
        self.read_blocks_total = 0
        self.read_cache_hit_blocks = 0
        self.read_extents_issued = 0
        self.writes_total = 0
        self.write_blocks_total = 0
        self.write_requests_removed = 0
        self.write_blocks_deduped = 0
        self.write_blocks_written = 0
        self.redirected_writes = 0
        self.stale_dedupe_avoided = 0
        self.disk_index_lookups = 0

    # ------------------------------------------------------------------
    # construction hooks
    # ------------------------------------------------------------------

    def _make_cache(self) -> DramCache:
        """Build the DRAM cache organisation (fixed split by default)."""
        return PartitionedCache(self.config.memory_bytes, self.config.index_fraction)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def attach_observer(self, recorder: TraceRecorder) -> None:
        """Attach a trace recorder to this scheme and its cache.

        Observation only: attaching a recorder (at any level) must
        never change simulation behaviour -- the integration tests
        assert byte-identical results with tracing on and off.
        """
        self.obs = recorder
        if hasattr(self.cache, "attach_observer"):
            self.cache.attach_observer(recorder, clock=self._obs_clock)

    def _obs_clock(self) -> float:
        """Current simulated time for events emitted by owned caches."""
        return self._obs_now

    # ------------------------------------------------------------------
    # the scheme interface
    # ------------------------------------------------------------------

    def process(self, request: IORequest, now: float) -> PlannedIO:
        """Plan the physical I/O for one user request."""
        self._obs_now = now
        if self.spans is None:
            return self._plan(request, now)
        # Span-traced path: the Index/Map lookup (and any dedup
        # classification work inside it) is one child of the request's
        # root span.  Planning happens at one simulated instant, so
        # the span is zero-width; its attrs carry the outcome.
        sid = self.spans.start(
            now, "scheme.lookup", parent=self.span_parent, req_id=request.req_id
        )
        planned = self._plan(request, now)
        self.spans.end(
            now,
            sid,
            eliminated=planned.eliminated,
            deduped_blocks=planned.deduped_blocks,
            cache_hit_blocks=planned.cache_hit_blocks,
        )
        return planned

    def _plan(self, request: IORequest, now: float) -> PlannedIO:
        if request.op is _WRITE:
            if self.chunker is not None:
                request = self._chunked(request)
            return self._process_write(request, now)
        return self._process_read(request, now)

    def _chunked(self, request: IORequest) -> IORequest:
        """Rewrite a write's fingerprints through the CDC transform.

        Shape-preserving (``nblocks`` fingerprints in and out), so the
        commit path is untouched; the request object handed onward is
        a fresh one -- callers holding the original (the replay
        driver, the metrics collector) still see the raw trace record.
        """
        assert self.chunker is not None and request.fingerprints is not None
        return IORequest.raw(
            request.time,
            request.op,
            request.lba,
            request.nblocks,
            self.chunker.transform(request.fingerprints),
            request.req_id,
            request.volume_id,
        )

    def plan_columns(
        self,
        a: int,
        b: int,
        times: Sequence[float],
        is_write: Sequence[bool],
        lbas: Sequence[int],
        nblocks: Sequence[int],
        volume_ids: Sequence[int],
        fp_offsets: Sequence[int],
        fp_ids: Sequence[int],
        pool: Sequence[int],
        nvram_out: Optional[List[int]] = None,
        chunk_cols: Optional[Tuple[Any, Any]] = None,
    ) -> List[PlannedIO]:
        """Plan arrivals ``[a, b)`` straight from merged trace columns.

        The columnar replay driver's planning call: request ``i`` is
        ``lbas[i]``/``nblocks[i]`` arriving at ``times[i]`` on volume
        ``volume_ids[i]``; its write chunks are ``pool[fp_ids[k]]`` for
        ``k`` in ``fp_offsets[i] .. fp_offsets[i+1]``.  Each request is
        planned in arrival order exactly as :meth:`process` plans it
        (the driver never arms spans), so the result is bit-identical
        to the object event loop -- the golden batch-replay tests pin
        this.  ``nvram_out``, when given, receives
        ``self.nvram.bytes_used`` as read just before each request is
        planned: the value the object path's timeline gauge samples at
        every arrival.  ``chunk_cols`` are the stream's CDC columns
        from :meth:`ChunkTransform.columns` (anchor ids and offsets per
        write chunk): the window's effective fingerprints are built
        from them instead of running the chunker per request.
        """
        raw = IORequest.raw
        write_op = OpType.WRITE
        read_op = OpType.READ
        pool_at = pool.__getitem__
        chunker = self.chunker
        process_write = self._process_write
        process_read = self._process_read
        nvram = self.nvram
        effective: Optional[List[int]] = None
        k0 = fp_offsets[a]
        if chunker is not None and chunk_cols is not None:
            anchors, offsets = chunk_cols
            k1 = fp_offsets[b]
            effective = [
                (pool[anchor] << OFFSET_BITS) | offset
                for anchor, offset in zip(anchors[k0:k1].tolist(), offsets[k0:k1].tolist())
            ]
        out: List[PlannedIO] = []
        append = out.append
        for i in range(a, b):
            if nvram_out is not None:
                nvram_out.append(nvram.bytes_used)
            now = times[i]
            self._obs_now = now
            if is_write[i]:
                if effective is not None:
                    fps = tuple(effective[fp_offsets[i] - k0 : fp_offsets[i + 1] - k0])
                else:
                    fps = tuple(map(pool_at, fp_ids[fp_offsets[i] : fp_offsets[i + 1]]))
                    if chunker is not None:
                        fps = chunker.transform(fps)
                request = raw(now, write_op, lbas[i], nblocks[i], fps, i, volume_ids[i])
                append(process_write(request, now))
            else:
                request = raw(now, read_op, lbas[i], nblocks[i], None, i, volume_ids[i])
                append(process_read(request, now))
        return out

    def on_epoch(self, now: float) -> List[VolumeOp]:
        """Periodic cache management; returns background swap traffic.

        Only meaningful for schemes with ``epoch_interval`` set.
        """
        swapped_bytes = self.cache.on_epoch(now)
        return self._swap_ops(swapped_bytes)

    def capacity_blocks(self) -> int:
        """Physical blocks in use backing all written logical blocks
        (the Fig. 10 capacity measure).  Walks every written LBA: a
        replay reads it once, from :meth:`stats`."""
        return len(self.map_table.live_pbas(self.written_lbas))

    # ------------------------------------------------------------------
    # fault tolerance hooks
    # ------------------------------------------------------------------

    def enable_journal(self) -> MapJournal:
        """Attach a write-ahead :class:`MapJournal` to the Map table
        (idempotent).  Required before a simulated NVRAM power loss
        can be recovered from."""
        if self.map_table.journal is None:
            self.map_table.attach_journal(MapJournal())
        journal = self.map_table.journal
        assert journal is not None
        return journal

    def quarantine(self, lbas: Set[int]) -> None:
        """Put LBAs into dedupe-bypass degradation mode.

        Crash recovery calls this for every LBA whose mapping could
        not be re-derived: the system no longer vouches for their
        content, so subsequent writes of them must carry real data
        (never a dedup pointer) until the map heals.
        """
        self.quarantined_lbas.update(lbas)

    # ------------------------------------------------------------------
    # policy points
    # ------------------------------------------------------------------

    def _probe(
        self, fingerprints: Sequence[int]
    ) -> Tuple[List[Optional[int]], List[VolumeOp]]:
        """Resolve a write's chunk fingerprints to duplicate PBAs.

        Returns ``(pbas, extra_ops)``: per chunk the candidate
        duplicate PBA or ``None``, and the lookup costs charged to the
        request (e.g. on-disk index reads for Full-Dedupe).  The
        default is POD's Data Deduplicator: one probe of the hot Index
        table for the whole request, where a miss simply means "treat
        as unique" -- the cache is told about the misses in one call so
        iCache's ghost index can measure the opportunity cost.
        """
        assert self.index_table is not None
        pbas, missed = self.index_table.probe(fingerprints)
        if missed:
            self.cache.on_index_misses(missed)
        return pbas, []

    @abc.abstractmethod
    def _choose_dedupe(
        self, request: IORequest, duplicate_pbas: Sequence[Optional[int]]
    ) -> Set[int]:
        """Chunk indices (into the request) to deduplicate."""

    # ------------------------------------------------------------------
    # shared read path
    # ------------------------------------------------------------------

    def _process_read(self, request: IORequest, now: float) -> PlannedIO:
        """Plan one read: one Map-table call translates the request, one
        cache call looks its blocks up (probing the ghost read cache
        with the misses), and one cache call inserts the misses."""
        nblocks = request.nblocks
        self.reads_total += 1
        self.read_blocks_total += nblocks
        if self.quarantined_lbas:
            self.quarantine_reads += sum(
                1 for lba in request.blocks() if lba in self.quarantined_lbas
            )
        missing = self.cache.read_probe(self.map_table.translate_range(request.lba, nblocks))
        hits = nblocks - len(missing)
        self.read_cache_hit_blocks += hits
        if self.obs.level >= _CHUNK:
            self.obs.emit(
                TraceLevel.CHUNK,
                now,
                EventType.CACHE_READ,
                req_id=request.req_id,
                hits=hits,
                misses=len(missing),
            )
        if not missing:
            return PlannedIO(delay=0.0, volume_ops=[], cache_hit_blocks=hits)
        ops = extents_to_ops(_READ, missing)
        self.read_extents_issued += len(ops)
        self.cache.read_fill(set(missing))
        return PlannedIO(delay=0.0, volume_ops=ops, cache_hit_blocks=hits)

    # ------------------------------------------------------------------
    # shared write path
    # ------------------------------------------------------------------

    def _process_write(self, request: IORequest, now: float) -> PlannedIO:
        """Plan one write in a single pass: probe, classify, commit."""
        self.writes_total += 1
        nblocks = request.nblocks
        self.write_blocks_total += nblocks
        assert request.fingerprints is not None

        delay = 0.0
        lookup_ops: List[VolumeOp] = []
        if self.uses_fingerprints:
            delay = self.hash_engine.delay_for(nblocks)
            duplicate_pbas, lookup_ops = self._probe(request.fingerprints)
        else:
            duplicate_pbas = [None] * nblocks

        dedupe_idx = self._choose_dedupe(request, duplicate_pbas)
        if self.decision_hook is not None:
            self.decision_hook(request, duplicate_pbas, dedupe_idx)
        if self.quarantined_lbas and dedupe_idx:
            # Degradation mode: a quarantined LBA's content is
            # unverifiable, so its write must carry real data -- never
            # a dedup pointer -- until the map heals (the write-side
            # mirror of POD's miss-as-unique rule).
            bypassed = {
                i for i in dedupe_idx
                if request.lba + i in self.quarantined_lbas
            }
            if bypassed:
                self.dedupe_bypass_writes += len(bypassed)
                dedupe_idx = dedupe_idx - bypassed
        write_ops, deduped_idx = self._commit_write(request, duplicate_pbas, dedupe_idx)
        eliminated = not write_ops and nblocks > 0
        if eliminated:
            self.write_requests_removed += 1
        deduped = len(deduped_idx)
        self.write_blocks_deduped += deduped
        return PlannedIO(  # positional: one is built per write request
            delay,
            lookup_ops + write_ops if lookup_ops else write_ops,
            None,  # background_ops
            eliminated,
            deduped,
            0,  # cache_hit_blocks
            deduped_idx,
        )

    def _commit_write(
        self,
        request: IORequest,
        duplicate_pbas: Sequence[Optional[int]],
        dedupe_idx: Set[int],
    ) -> Tuple[List[VolumeOp], Tuple[int, ...]]:
        """Apply one write to the Map table, content store and caches.

        Returns ``(data_write_ops, deduped_chunk_indices)`` where the
        indices are the request chunks whose write was eliminated (in
        ascending order; ``len()`` of it is the deduped block count).

        The commit kernel: one loop over the blocks decides each block's
        remap or placement (the rule of
        :meth:`MapTable.choose_write_target`, inlined) and applies its
        Map-table update (:meth:`MapTable.rebind`'s rules, inlined, with
        the journal written ahead per block), its content and the log
        blocks it allocates or recycles -- in block order, because a
        recycled block feeds a later allocation and a written block
        feeds a later block's stale-target check.  The NVRAM meter takes
        the request's net entry change and its high-water mark once.
        The loop records a change log (:data:`~repro.dedup.map_table.WROTE`
        ...; remaps only when :attr:`reads_remaps`); the state owners
        nothing in the loop reads -- the read cache, the Index table,
        the ghost index and per-scheme side state -- then see the whole
        request in one call each (:meth:`_settle`), in the same
        per-block order.  A request reaching past the logical space is
        rejected before any of its blocks is committed.
        """
        fingerprints = request.fingerprints
        assert fingerprints is not None
        lba0 = request.lba
        table = self.map_table
        table.check_range(lba0, len(fingerprints))
        self.written_lbas.update(range(lba0, lba0 + len(fingerprints)))
        entries, refcounts = table.commit_state()
        mapped = entries.get
        refs = refcounts.get
        journal = table.journal
        log_lo, log_hi = self._log_span
        content = self.content._content  # pod: ignore[POD007]
        stored = content.get
        allocate = self.log_alloc.allocate
        release = self._release
        quarantined = self.quarantined_lbas
        log_remaps = self.reads_remaps
        changes: List[Change] = []
        note = changes.append
        write_pbas: List[int] = []
        add_write = write_pbas.append
        dropped: List[int] = []
        deduped: List[int] = []
        add_deduped = deduped.append
        stale = heals = redirected = 0
        # Net Map-table entries added so far, and the most at any point.
        grown = high = 0
        try:
            for i, fp in enumerate(fingerprints):
                lba = lba0 + i
                current = mapped(lba)
                target = None
                if dedupe_idx and i in dedupe_idx:
                    target = duplicate_pbas[i]
                    # Safety net: the duplicate target must still hold
                    # the claimed content (an earlier chunk of this very
                    # request may have overwritten or freed it).
                    if target in write_pbas or stored(target) != fp:
                        stale += 1
                        target = None
                    else:
                        add_deduped(i)
                        entry = None if target == lba else target
                if target is None:
                    # Normal (non-deduplicated) write.
                    if quarantined and lba in quarantined:
                        # Real data reaching a quarantined LBA heals it:
                        # the map entry below is rebuilt from scratch and
                        # the content is again vouched for.
                        quarantined.discard(lba)
                        heals += 1
                    if refs(lba, 0) <= 0:
                        # The home block is unreferenced: write in place
                        # and drop a stale redirection.
                        entry = None
                    elif (
                        current is not None
                        and current != lba
                        and log_lo <= current < log_hi
                        and refs(current) == 1
                    ):
                        entry = current  # the LBA's private log block
                    else:
                        # Every candidate is shared: redirect to a fresh
                        # block.
                        entry = allocate()
                        redirected += 1
                # ``entry`` is the LBA's Map-table entry after this block
                # (``None``: its home block); move it there as
                # :meth:`MapTable.rebind` does.
                if entry != current:
                    if current is not None:
                        if journal is not None:
                            journal.append_clear(lba)  # write-ahead
                        del entries[lba]
                        grown -= 1
                        count = refs(current, 0)
                        if count <= 0:
                            raise DedupError(f"refcount underflow on PBA {current}")
                        if count == 1:
                            del refcounts[current]
                            release(current, changes, dropped)
                        else:
                            refcounts[current] = count - 1
                    if entry is not None:
                        if journal is not None:
                            journal.append_set(lba, entry)  # write-ahead
                        entries[lba] = entry
                        refcounts[entry] = refs(entry, 0) + 1
                        grown += 1
                        if grown > high:
                            high = grown
                if target is not None:
                    if log_remaps:
                        note((REMAPPED, target, lba))
                    continue
                target = lba if entry is None else entry
                content[target] = fp
                note((WROTE, target, fp))
                add_write(target)
        finally:
            # A block that raised (the log region ran out) leaves the
            # blocks before it committed: settle those as well.
            if grown or high:
                self.nvram.commit(grown, high)
            self.stale_dedupe_avoided += stale
            self.quarantine_heals += heals
            self.redirected_writes += redirected
            self._settle(changes, write_pbas + dropped if dropped else write_pbas)
        self.write_blocks_written += len(write_pbas)
        return extents_to_ops(_WRITE, write_pbas), tuple(deduped)

    def _release(self, freed: int, changes: List[Change], dropped: List[int]) -> None:
        """``freed`` lost its last Map-table reference: log the change,
        and recycle it if it is an allocated log block (its content is
        discarded; it joins ``dropped``, the blocks that leave the read
        cache)."""
        alloc = self.log_alloc
        recycled = alloc.owns(freed) and alloc.is_allocated(freed)
        if recycled:
            alloc.free(freed)
            self.content.discard(freed)
            dropped.append(freed)
        changes.append((FREED, freed, recycled))

    def _settle(self, changes: List[Change], dropped: List[int]) -> None:
        """Bring the owners outside the commit loop up to date, one call
        each: the ``dropped`` blocks (written or recycled) leave the read
        cache, the Index table replays the change log and its evictions
        reach the cache's ghost index, then :meth:`_on_changes` runs."""
        if dropped:
            self.cache.read_remove_many(dropped)
            # Only a written or a recycled block changes the Index
            # table, and each of those is dropped.
            if self.index_table is not None:
                self.index_table.apply(changes)
                evicted = self.index_table.drain_evicted()
                if evicted:
                    self.cache.note_index_evictions(evicted)
        if changes:
            self._on_changes(changes)

    def _on_changes(self, changes: List[Change]) -> None:
        """Hook: one commit's change log, in commit order, when it is
        not empty.  Schemes with extra per-PBA state (SAR's SSD
        residency, Full-Dedupe's full index, Post-Process's offline
        index) update it here; only a scheme with :attr:`reads_remaps`
        sees ``REMAPPED`` entries."""

    # ------------------------------------------------------------------
    # swap traffic (iCache)
    # ------------------------------------------------------------------

    def _swap_ops(self, swapped_bytes: float) -> List[VolumeOp]:
        """Turn a repartition's byte movement into reserved-area I/O.

        The Swap Module reads the swapped-in data from and writes the
        swapped-out data to the reserved region (Section III-C); both
        directions move the same number of bytes.
        """
        if swapped_bytes <= 0 or self.regions.swap_blocks == 0:
            return []
        nblocks = max(1, int(swapped_bytes) // BLOCK_SIZE)
        nblocks = min(nblocks, self.regions.swap_blocks)
        start = self.regions.swap_base + (self._swap_cursor % self.regions.swap_blocks)
        nblocks = min(nblocks, self.regions.swap_base + self.regions.swap_blocks - start)
        self._swap_cursor += nblocks
        return [
            VolumeOp(OpType.READ, start, nblocks),
            VolumeOp(OpType.WRITE, start, nblocks),
        ]

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    def simulate_power_failure(self) -> None:
        """Drop every piece of volatile (DRAM) state.

        The paper stores the Map table in NVRAM precisely so this is
        survivable (Sections III-B, IV-D.2): after a power failure the
        Map table and the on-disk content are intact, while the DRAM
        caches -- the read cache and the hot fingerprint Index table --
        are lost.  Recovery therefore preserves *correctness* (every
        LBA still resolves to its last-written content) and only
        temporarily reduces the deduplication ratio until the hot
        index re-warms.
        """
        self.cache: DramCache = self._make_cache()
        if self.uses_fingerprints:
            self.index_table = IndexTable(self.cache.index)
            if hasattr(self.cache, "attach_index_table"):
                self.cache.attach_index_table(self.index_table)
        self._volatile_reset()

    def _volatile_reset(self) -> None:
        """Hook for subclasses with extra volatile state."""

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot for reports and tests."""
        out = {
            "scheme": self.name,
            "reads": self.reads_total,
            "read_blocks": self.read_blocks_total,
            "read_cache_hit_blocks": self.read_cache_hit_blocks,
            "read_extents": self.read_extents_issued,
            "writes": self.writes_total,
            "write_blocks": self.write_blocks_total,
            "write_requests_removed": self.write_requests_removed,
            "write_blocks_deduped": self.write_blocks_deduped,
            "write_blocks_written": self.write_blocks_written,
            "redirected_writes": self.redirected_writes,
            "stale_dedupe_avoided": self.stale_dedupe_avoided,
            "disk_index_lookups": self.disk_index_lookups,
            "capacity_blocks": self.capacity_blocks(),
            "map_entries": len(self.map_table),
            "nvram_peak_bytes": self.nvram.peak_bytes,
            "chunks_hashed": self.hash_engine.chunks_hashed,
            "quarantined_lbas": len(self.quarantined_lbas),
            "dedupe_bypass_writes": self.dedupe_bypass_writes,
            "quarantine_heals": self.quarantine_heals,
            "quarantine_reads": self.quarantine_reads,
        }
        if self.map_table.journal is not None:
            out["journal_records_appended"] = self.map_table.journal.records_appended
            out["journal_checkpoints"] = self.map_table.journal.checkpoints_taken
        if self.chunker is not None:
            out.update({f"chunking_{k}": v for k, v in self.chunker.stats().items()})
        out.update({f"cache_{k}": v for k, v in self.cache.stats().items()})
        if self.index_table is not None:
            out.update({f"index_{k}": v for k, v in self.index_table.stats().items()})
        return out
