"""Deterministic fault injection + the recovery paths it exercises.

The :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into concrete, *seeded* misbehaviour threaded through every layer of a
replay, together with the machinery that lets the simulated system
survive it:

==================  ==================================================
fault class         injection / recovery path
==================  ==================================================
latent sector       per-disk-op fault hook: the read attempt fails
errors              (but still spins the disk), is retried with
                    bounded backoff, then reconstructed by reading the
                    same block range from every surviving member of
                    the row (RAID-5 parity, the per-fragment rule of
                    ``RaidArray.map_read_degraded``) and repaired with
                    a write back to the faulted disk -- all charged at
                    real mechanical cost.
fail-slow disks     per-disk latency-multiplier windows inside
                    ``Disk.service`` (a degrading drive is correct but
                    slow).
member failure      the node's ``failed_disk`` flips mid-replay, so
                    foreground traffic pays degraded-read/write costs,
                    while a :class:`~repro.storage.rebuild.RebuildController`
                    runs as paced background load until the spare is
                    rebuilt and the array heals.
NVRAM power loss    DRAM state drops, the Map table is re-derived from
                    the write-ahead :class:`~repro.storage.journal.MapJournal`
                    (torn-tail detection, replay, refcount
                    re-derivation); LBAs whose recovered mapping
                    diverges from the pre-crash truth are quarantined
                    into dedupe-bypass mode and healed by later writes.
index corruption    live Index-table fingerprints are bit-flipped in a
                    structure-preserving way; the true fingerprint now
                    misses (POD's miss-as-unique degradation) and any
                    hit on the corrupt entry is caught by the commit
                    content check.
==================  ==================================================

Every random choice flows from one ``numpy`` generator seeded by the
plan, so a plan + seed reproduces the exact fault sequence; the
per-fault counters, recovery-latency histogram and the *blast-radius*
histogram (logical blocks at risk per lost physical block, the number
that quantifies how deduplication concentrates failure domains) land
in the run report via the replay's metrics registry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set

import numpy as np

from repro.errors import FaultError
from repro.faults.oracle import ContentOracle
from repro.faults.plan import (
    FaultPlan,
    IndexCorruptionSpec,
    MemberFailureSpec,
    NvramLossSpec,
)
from repro.obs.events import EventType, TraceLevel
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.sim.request import DiskOp, OpType
from repro.storage.raid import RaidLevel
from repro.storage.rebuild import RebuildController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.baselines.base import DedupScheme
    from repro.cluster.node import ClusterNode
    from repro.sim.engine import Simulator

#: Blast-radius histogram buckets: powers of two up to 64 Ki logical
#: blocks per lost physical block.
BLAST_RADIUS_BOUNDS = [float(2**i) for i in range(17)]


class FaultInjector:
    """Owns one replay's fault schedule, recovery state and counters.

    :meth:`install` targets one node (its member disks, RAID array,
    ``failed_disk`` and fault hook) and schedules the plan's timed
    faults on the replay's clock.
    """

    def __init__(
        self,
        plan: FaultPlan,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        self._registry = registry
        #: Simulated time before which arrivals stall behind crash
        #: recovery (NVRAM-loss replay is a stop-the-world pause).
        self.blocked_until = 0.0
        #: Per-volume admission stalls (``NvramLossSpec.scope ==
        #: "volume"``): volume_id -> blocked-until time.  Consulted via
        #: :meth:`blocked_until_for`; empty for global-scope plans.
        self._blocked_by_volume: Dict[int, float] = {}
        #: The node's namespace mapper (set by :meth:`install`); needed
        #: to attribute recovered journal records to tenant namespaces
        #: for per-volume recovery.
        self.mapper: Optional[Any] = None
        #: Leased-job runtime (set by the harness when jobs are armed):
        #: the rebuild then runs as a leased job instead of the legacy
        #: pacing tick.
        self.jobs: Optional[Any] = None
        #: True while the scrubber job's region read is in flight
        #: (synchronous in the analytic path); attributes LSE
        #: discoveries to the scrubber.
        self.in_scrub = False
        self.obs: TraceRecorder = NULL_RECORDER
        #: Attached windowed sampler and span tracer (``None`` unless
        #: the replay armed telemetry): recovery work annotates its
        #: windows and emits ``recovery.*`` spans.  Observation only.
        self.timeline: Optional[Any] = None
        self.spans: Optional[Any] = None
        #: Per-fault counters (mirrored into the registry at finalize).
        self.counters: Dict[str, int] = {}
        if registry is not None:
            self.recovery_hist = registry.histogram("faults.recovery_latency")
            self.blast_hist = registry.histogram(
                "faults.blast_radius", BLAST_RADIUS_BOUNDS
            )
        else:
            self.recovery_hist = Histogram("faults.recovery_latency")
            self.blast_hist = Histogram("faults.blast_radius", BLAST_RADIUS_BOUNDS)
        #: disk_id -> {disk_pba: volume_pba} of still-latent sector errors.
        self._lse_by_disk: Dict[int, Dict[int, int]] = {}
        self.rebuild: Optional[RebuildController] = None
        self._member_failed_at: Optional[float] = None
        self._finalized = False
        #: The end-to-end content oracle shadowing this replay.
        self.oracle = ContentOracle()
        self._sim: Optional["Simulator"] = None
        self._node: Optional["ClusterNode"] = None

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self, sim: "Simulator", node: "ClusterNode") -> None:
        """Arm every fault in the plan against ``node`` on ``sim``'s
        clock, before the replay schedules its arrivals.  Attach the
        timeline first: fail-slow windows become its bands here."""
        plan = self.plan
        self._sim = sim
        self._node = node
        self.mapper = node.mapper
        scheme = node.scheme

        # -- latent sector errors --------------------------------------
        lse_pbas = self.resolve_lse_pbas(scheme)
        for vpba in lse_pbas:
            disk, disk_pba, _row = node.raid.locate(vpba)
            self._lse_by_disk.setdefault(disk, {})[disk_pba] = vpba
        if self._lse_by_disk:
            node.fault_hook = self.on_disk_op
        self._count("lse_injected", len(lse_pbas))

        # -- fail-slow windows -----------------------------------------
        for spec in plan.fail_slow:
            if not (0 <= spec.disk < len(node.disks)):
                raise FaultError(f"fail-slow spec names unknown disk {spec.disk}")
            node.disks[spec.disk].add_slow_window(spec.start, spec.end, spec.multiplier)
            self._count("fail_slow_windows")
            if self.timeline is not None:
                # Known in advance: the whole interval is banded up
                # front (tick-driven activity is noted live).
                self.timeline.annotate_interval("fail_slow", spec.start, spec.end)

        # -- member failure + rebuild ----------------------------------
        if plan.member_failure is not None:
            spec = plan.member_failure
            if not (0 <= spec.disk < len(node.disks)):
                raise FaultError(f"member-failure spec names unknown disk {spec.disk}")
            sim.schedule_callback(spec.time, self._begin_member_failure, spec)

        # -- NVRAM power loss ------------------------------------------
        if plan.nvram_loss:
            scheme.enable_journal()
            for nspec in plan.nvram_loss:
                sim.schedule_callback(nspec.time, self._fire_nvram_loss, nspec)

        # -- index corruption ------------------------------------------
        for cspec in plan.index_corruption:
            sim.schedule_callback(cspec.time, self._fire_index_corruption, cspec)

    def resolve_lse_pbas(self, scheme: "DedupScheme") -> List[int]:
        """Where the plan's latent sector errors land: pinned PBAs plus
        seeded random draws from the home region (consumes the plan's
        RNG, so call it once per injector)."""
        spec = self.plan.latent_sector_errors
        total = scheme.regions.total_blocks
        chosen: Set[int] = set()
        for pba in spec.pbas:
            if pba >= total:
                raise FaultError(
                    f"latent sector error at PBA {pba} outside the volume "
                    f"of {total} blocks"
                )
            chosen.add(pba)
        logical = scheme.regions.logical_blocks
        budget = min(spec.random_count, max(0, logical - len(chosen)))
        while budget > 0:
            pba = int(self.rng.integers(0, logical))
            if pba not in chosen:
                chosen.add(pba)
                budget -= 1
        # Correlated bursts draw *after* the independent errors so a
        # plan without bursts keeps its exact legacy RNG sequence.
        burst = self.plan.lse_bursts
        if burst is not None:
            tracks = max(1, logical // burst.track_blocks)
            injected = 0
            for _burst in range(burst.bursts):
                anchor = int(self.rng.integers(0, tracks))
                offset = int(self.rng.integers(0, burst.track_blocks))
                for t in range(burst.adjacency):
                    track_base = ((anchor + t) % tracks) * burst.track_blocks
                    for i in range(burst.length):
                        pba = track_base + (offset + i) % burst.track_blocks
                        if pba < logical and pba not in chosen:
                            chosen.add(pba)
                            injected += 1
            self._count("lse_burst_blocks", injected)
        return sorted(chosen)

    # ------------------------------------------------------------------
    # latent sector errors (the node's disk-op hook)
    # ------------------------------------------------------------------

    def on_disk_op(self, now: float, op: DiskOp) -> Optional[float]:
        """The node's fault hook: intercept one disk op; return its
        completion time to override normal service, or ``None`` to
        fall through."""
        bad = self._lse_by_disk.get(op.disk_id)
        if not bad:
            return None
        hit = [dpba for dpba in bad if op.pba <= dpba < op.pba + op.nblocks]
        if not hit:
            return None
        if op.op is OpType.WRITE:
            # Writing a bad sector remaps it: the error is healed
            # without any recovery traffic, as on real drives.
            for dpba in hit:
                del bad[dpba]
            self._count("lse_healed_by_write", len(hit))
            return None

        node = self._node
        assert node is not None
        disk = node.disks[op.disk_id]
        self._count("lse_read_failures")
        if self.in_scrub:
            # The scrubber got here before any foreground read did.
            self._count("lse_scrub_discoveries", len(hit))
        # The failed attempt still costs a full mechanical access.
        done = disk.service(now, op.pba, op.nblocks)
        retry = self.plan.lse_retry
        for _attempt in range(retry.max_retries):
            self._count("lse_retries")
            done = disk.service(done + retry.backoff, op.pba, op.nblocks)

        recoverable = (
            node.raid.geometry.level is RaidLevel.RAID5
            and node.failed_disk is None
        )
        if not recoverable:
            # No parity (RAID-0/SINGLE) or a peer is already dead: the
            # read cannot be reconstructed.  The error stays latent and
            # is counted; the content oracle tracks whether any
            # logical block actually depended on it.
            self._count("lse_unrecoverable")
            if self.obs.level >= TraceLevel.SUMMARY:
                self.obs.emit(
                    TraceLevel.SUMMARY, now, EventType.FAULT_INJECT,
                    kind="lse_unrecoverable",
                    detail=f"disk {op.disk_id} pba {hit[0]} (+{len(hit) - 1} more)",
                )
            return done
        # Degraded-read reconstruction, per-fragment (the
        # map_read_degraded rule): read the same block range from
        # every surviving member of the row, then repair the faulted
        # range with a write back.
        peer_done = done
        for peer in node.disks:
            if peer.disk_id == op.disk_id:
                continue
            t = peer.service(done, op.pba, op.nblocks)
            if t > peer_done:
                peer_done = t
        repaired = disk.service(peer_done, op.pba, op.nblocks)
        for dpba in hit:
            self._observe_blast_radius(node.scheme, bad[dpba])
            del bad[dpba]
        self._count("lse_reconstructions")
        self._count("lse_sectors_recovered", len(hit))
        self.recovery_hist.observe(repaired - now)
        if self.timeline is not None:
            self.timeline.note_activity(now, "lse_recovery")
        if self.spans is not None:
            self.spans.emit(
                now, repaired, "recovery.lse",
                disk=op.disk_id, sectors=len(hit),
            )
        if self.obs.level >= TraceLevel.SUMMARY:
            self.obs.emit(
                TraceLevel.SUMMARY, now, EventType.FAULT_RECOVER,
                kind="lse", latency=repaired - now,
                detail=f"disk {op.disk_id} sectors {len(hit)}",
            )
        return repaired

    # ------------------------------------------------------------------
    # member failure + paced rebuild
    # ------------------------------------------------------------------

    def _begin_member_failure(self, spec: MemberFailureSpec) -> None:
        sim, node = self._sim, self._node
        assert sim is not None and node is not None
        scheme = node.scheme
        node.failed_disk = spec.disk
        self._member_failed_at = sim.now
        self._count("member_failures")
        su = node.raid.geometry.stripe_unit_blocks
        disk_rows = max(1, node.disks[spec.disk].params.total_blocks // su)
        live = (
            scheme.map_table.live_pbas(scheme.written_lbas)
            if spec.capacity_aware
            else None
        )
        ctrl = RebuildController(node.raid, spec.disk, disk_rows, live)
        self.rebuild = ctrl
        if self.timeline is not None:
            self.timeline.note_activity(sim.now, "degraded", 1.0)
        if self.obs.level >= TraceLevel.SUMMARY:
            self.obs.emit(
                TraceLevel.SUMMARY, sim.now, EventType.FAULT_INJECT,
                kind="member_failure",
                detail=f"disk {spec.disk} failed; rebuilding {disk_rows} rows",
            )
        if self.jobs is not None:
            # Jobs armed: the rebuild runs as a leased job -- a worker
            # claims it, paces the same batches, and survives stale
            # leases via epoch-fenced re-claim.
            from repro.jobs.jobs import RebuildJob

            self.jobs.submit(
                "rebuild",
                RebuildJob(ctrl, spec.rows_per_batch, self._issue_rebuild),
                spec.interval,
                on_done=lambda _t: self._complete_member_failure(spec),
            )
            return
        sim.schedule_callback(sim.now + spec.interval, self._rebuild_tick, spec)

    def _complete_member_failure(self, spec: MemberFailureSpec) -> None:
        """The array heals: shared by the legacy tick and the job path."""
        sim, node, ctrl = self._sim, self._node, self.rebuild
        assert sim is not None and node is not None and ctrl is not None
        node.failed_disk = None
        assert self._member_failed_at is not None
        duration = sim.now - self._member_failed_at
        self._count("rebuilds_completed")
        self.recovery_hist.observe(duration)
        if self.spans is not None:
            self.spans.emit(
                self._member_failed_at, sim.now, "recovery.rebuild",
                disk=spec.disk, rows_rebuilt=ctrl.rows_rebuilt,
            )
        if self.obs.level >= TraceLevel.SUMMARY:
            self.obs.emit(
                TraceLevel.SUMMARY, sim.now, EventType.FAULT_RECOVER,
                kind="member_failure", latency=duration,
                detail=(
                    f"disk {spec.disk} rebuilt: {ctrl.rows_rebuilt} rows "
                    f"rebuilt, {ctrl.rows_skipped} skipped"
                ),
            )

    def _issue_rebuild(self, ops: List[DiskOp]) -> float:
        """Issue one rebuild batch on the node's spindles (through the
        fault hook) at the current clock; returns its completion."""
        assert self._sim is not None and self._node is not None
        return self._node.service_disk_ops(self.obs, self._sim.now, ops)

    def _rebuild_tick(self, spec: MemberFailureSpec) -> None:
        sim, ctrl = self._sim, self.rebuild
        assert sim is not None and ctrl is not None
        if not ctrl.done:
            ops = ctrl.next_batch(spec.rows_per_batch)
            if ops:
                # Background load: competes for the spindles, gates
                # nothing.
                self._issue_rebuild(ops)
        if self.timeline is not None:
            self.timeline.note_activity(sim.now, "rebuild", ctrl.progress)
        if ctrl.done:
            self._complete_member_failure(spec)
            return
        sim.schedule_callback(sim.now + spec.interval, self._rebuild_tick, spec)

    # ------------------------------------------------------------------
    # NVRAM power loss + journal recovery
    # ------------------------------------------------------------------

    def _fire_nvram_loss(self, spec: NvramLossSpec) -> None:
        sim, node = self._sim, self._node
        assert sim is not None and node is not None
        scheme = node.scheme
        journal = scheme.map_table.journal
        assert journal is not None  # attached by install()
        truth = scheme.map_table.snapshot()
        self._count("nvram_losses")
        self._count("nvram_entries_torn", min(spec.torn_entries, len(truth)))
        if self.obs.level >= TraceLevel.SUMMARY:
            self.obs.emit(
                TraceLevel.SUMMARY, sim.now, EventType.FAULT_INJECT,
                kind="nvram_loss",
                detail=(
                    f"power cut: {len(truth)} map entries at stake, journal "
                    f"tail -{spec.lose_journal_tail} lost "
                    f"/{spec.tear_journal_tail} torn"
                ),
            )

        # The crash: DRAM gone, journal tail damaged.
        scheme.simulate_power_failure()
        lost = journal.lose_tail(spec.lose_journal_tail)
        torn = journal.tear_tail(spec.tear_journal_tail)
        self._count("journal_records_lost", lost)
        self._count("journal_records_torn", torn)

        # Recovery: replay the surviving prefix, scrub structurally
        # invalid entries, re-derive refcounts wholesale.
        mapping, replayed, torn_detected = journal.replay()
        if torn_detected:
            self._count("torn_tails_detected")
        scrubbed = self._scrub_recovered_mapping(scheme, mapping)
        self._count("journal_records_replayed", replayed)
        self._count("recovery_entries_scrubbed", scrubbed)

        diverged = {
            lba
            for lba in set(truth) | set(mapping)
            if truth.get(lba) != mapping.get(lba)
        }
        # Blast radius of the crash: per physical block whose mapping
        # was lost, how many logical blocks referenced it pre-crash.
        at_risk_pbas = {truth[lba] for lba in diverged if lba in truth}
        for pba in sorted(at_risk_pbas):
            refs = sum(1 for t in truth.values() if t == pba)
            self.blast_hist.observe(float(refs))

        scheme.map_table.restore_mapping(mapping)
        if diverged:
            scheme.quarantine(diverged)
            self.oracle.mark_at_risk(diverged)
            self._count("lbas_quarantined", len(diverged))

        cost = spec.base_recovery_cost + spec.replay_cost_per_record * replayed
        if spec.scope == "volume" and self.mapper is not None:
            # Per-volume recovery: each tenant namespace replays its own
            # journal partition (cost proportional to the map entries
            # re-derived for that namespace, plus the shared base
            # pause), so unaffected tenants resume admission first.
            counts: Dict[int, int] = {
                volume.volume_id: 0 for volume in self.mapper
            }
            for lba in mapping:
                vid, _local = self.mapper.locate(lba)
                counts[vid] = counts.get(vid, 0) + 1
            worst = spec.base_recovery_cost
            for vid in sorted(counts):
                cost_v = (
                    spec.base_recovery_cost
                    + spec.replay_cost_per_record * counts[vid]
                )
                until = sim.now + cost_v
                if until > self._blocked_by_volume.get(vid, 0.0):
                    self._blocked_by_volume[vid] = until
                if cost_v > worst:
                    worst = cost_v
            cost = worst
            self._count("nvram_volume_recoveries", len(counts))
        else:
            self.blocked_until = max(self.blocked_until, sim.now + cost)
        self.recovery_hist.observe(cost)
        if self.timeline is not None:
            # Stop-the-world recovery spans a known interval; stamp it
            # on every overlapping window.
            self.timeline.annotate_interval("nvram_recovery", sim.now, sim.now + cost)
        if self.spans is not None:
            self.spans.emit(
                sim.now, sim.now + cost, "recovery.nvram",
                replayed=replayed, quarantined=len(diverged),
            )
        if self.obs.level >= TraceLevel.SUMMARY:
            self.obs.emit(
                TraceLevel.SUMMARY, sim.now, EventType.FAULT_RECOVER,
                kind="nvram_loss", latency=cost,
                detail=(
                    f"replayed {replayed} records, scrubbed {scrubbed}, "
                    f"quarantined {len(diverged)} LBA(s)"
                ),
            )

    @staticmethod
    def _scrub_recovered_mapping(
        scheme: "DedupScheme", mapping: Dict[int, int]
    ) -> int:
        """Drop recovered entries that fail the structural fsck.

        A lost CLEAR record can resurrect a mapping to a since-freed
        log block or an overwritten target; keeping it would violate
        the Map-table invariants.  Such entries are dropped -- the LBA
        falls back to its home block and lands in the diverged
        (quarantined) set.
        """
        regions = scheme.regions
        scrubbed = 0
        for lba, pba in list(mapping.items()):
            bad = (
                not (0 <= pba < regions.total_blocks)
                or not (regions.is_home(pba) or regions.is_log(pba))
                or pba == regions.home_of(lba)
                or scheme.content.read(pba) is None
                or (regions.is_log(pba) and not scheme.log_alloc.is_allocated(pba))
            )
            if bad:
                del mapping[lba]
                scrubbed += 1
        return scrubbed

    def blocked_until_for(self, volume_id: int) -> float:
        """Admission stall horizon for one tenant: the global
        stop-the-world stall or the volume's own recovery, whichever
        ends later."""
        blocked = self._blocked_by_volume.get(volume_id, 0.0)
        return blocked if blocked > self.blocked_until else self.blocked_until

    # ------------------------------------------------------------------
    # index corruption
    # ------------------------------------------------------------------

    def _fire_index_corruption(self, spec: IndexCorruptionSpec) -> None:
        sim, node = self._sim, self._node
        assert sim is not None and node is not None
        scheme = node.scheme
        table = scheme.index_table
        if table is None or len(table) == 0:
            self._count("index_corruptions_skipped")
            return
        keys = list(table.lru.keys_lru_order())
        n = min(spec.entries, len(keys))
        picked = self.rng.choice(len(keys), size=n, replace=False)
        flipped_total = 0
        for i in sorted(int(j) for j in picked):
            fp = keys[i]
            entry = table.peek(fp)
            if entry is None:  # pragma: no cover - keys are live
                continue
            bit = spec.bit if spec.bit is not None else int(self.rng.integers(0, 62))
            flipped = fp ^ (1 << bit)
            # Structure-preserving corruption: the entry keeps its PBA
            # claim but advertises a wrong fingerprint, exactly what a
            # bit flip in the fingerprint field does.
            table.remove(fp)
            table.insert(flipped, entry.pba)
            evicted = table.drain_evicted()
            if evicted:
                scheme.cache.note_index_evictions(evicted)
            flipped_total += 1
        self._count("index_corruptions", flipped_total)
        if self.timeline is not None and flipped_total:
            self.timeline.note_activity(sim.now, "index_corruption")
        if self.obs.level >= TraceLevel.SUMMARY:
            self.obs.emit(
                TraceLevel.SUMMARY, sim.now, EventType.FAULT_INJECT,
                kind="index_corruption",
                detail=f"bit-flipped {flipped_total} live fingerprint(s)",
            )

    # ------------------------------------------------------------------
    # blast radius
    # ------------------------------------------------------------------

    def _observe_blast_radius(self, scheme: "DedupScheme", pba: int) -> None:
        """Logical blocks at risk if ``pba`` were truly lost."""
        table = scheme.map_table
        refs = len(table.referencing_lbas(pba))
        if scheme.regions.is_home(pba):
            lba = pba  # home layout is identity
            if lba in scheme.written_lbas and not table.is_redirected(lba):
                refs += 1
        self.blast_hist.observe(float(refs))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def attach_observer(self, recorder: TraceRecorder) -> None:
        self.obs = recorder

    def finalize(self) -> None:
        """End-of-run sweep over the installed node: blast radius of
        still-latent errors, registry mirroring, and the content-oracle
        verdict."""
        if self._finalized:
            return
        self._finalized = True
        assert self._node is not None
        scheme = self._node.scheme
        latent = 0
        for bad in self._lse_by_disk.values():
            for vpba in bad.values():
                self._observe_blast_radius(scheme, vpba)
                latent += 1
        self._count("lse_still_latent", latent)
        if self._registry is not None:
            for name, value in self.counters.items():
                self._registry.inc(f"faults.{name}", value)
        self.oracle.assert_clean(scheme)

    def _count(self, name: str, n: int = 1) -> None:
        if n:
            self.counters[name] = self.counters.get(name, 0) + n

    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Fault-subsystem snapshot for ``ReplayResult.fault_stats``
        and the run report's ``faults`` section."""
        out: Dict[str, Any] = {
            "seed": self.plan.seed,
            "counters": dict(sorted(self.counters.items())),
            "recovery_latency": self.recovery_hist.as_dict(),
            "blast_radius": self.blast_hist.as_dict(),
            "oracle": self.oracle.summary(),
        }
        if self.rebuild is not None:
            out["rebuild"] = {
                "done": self.rebuild.done,
                "progress": self.rebuild.progress,
                "rows_scanned": self.rebuild.rows_scanned,
                "rows_rebuilt": self.rebuild.rows_rebuilt,
                "rows_skipped": self.rebuild.rows_skipped,
            }
        return out
