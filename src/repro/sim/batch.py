"""Columnar batch replay: the vectorized front-end of the event loop.

The object replay path (:mod:`repro.sim.replay`) schedules one heap
event per request arrival and plans each request inside its event
handler.  That is fully general -- and pays interpreter dispatch per
event.  This driver exploits three structural facts of the fast path
(analytic FCFS service, no faults, no per-request tracing):

1. **Planning is clock-free.**  ``scheme.process(request, now)`` never
   reads ``now`` on the fast path (it only feeds spans and recorders),
   so requests can be planned in arrival order *ahead* of disk
   servicing.
2. **Completion is scheme-free.**  Finishing a request touches only
   the disks and the metrics collector, never scheme state.
3. **Epoch ticks are the only interleaving.**  A scheme's ``on_epoch``
   does mutate scheme state, so plan-ahead is windowed: all arrivals
   up to a tick's timestamp are planned (in arrival order) before the
   tick fires, exactly the order the event loop would have produced
   (arrival events always outrank callbacks on timestamp ties, because
   every arrival's heap sequence number is assigned at setup).

Planning therefore proceeds in batches over the *columnar* trace
(:mod:`repro.traces.columnar`): requests are materialised via the
no-validation :meth:`IORequest.raw` (or not at all, when the scheme
plans straight off the columns -- :meth:`DedupScheme.plan_columns`),
and the disk/metrics phase replays completions through a single
merged arrival-cursor + callback-heap loop that reproduces the
engine's ``(time, seq)`` event order exactly.

An armed timeline (``ReplayConfig.timeline``, or the one an SLO
policy implies) rides along: completions reach it through
``metrics.record`` in the engine's exact event order, so per-window
counts, histograms and SLO good/bad counts match the object path.
Its gauges are per-window maxima and so independent of order: the
``nvram_bytes`` the planning tier reports before each request and the
``queue_lag`` computed at each arrival are folded per window, and the
iCache partition sizes are noted as each tick's ``on_epoch`` runs.

The result is **bit-identical** to :func:`repro.sim.replay.replay_traces`
for every scheme and any batch size (pinned by golden tests), at a
multiple of its throughput (see ``BENCH_replay.json`` and
``docs/performance.md``).  Configurations outside the fast path
(schedulers, faults, SSD, spans, jobs, ...) are detected by
:func:`batch_eligible` and silently fall back to the object path --
which is bit-identical anyway.
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_right
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines.base import DedupScheme, PlannedIO
from repro.constants import BLOCK_SIZE
from repro.errors import ConfigError
from repro.metrics.collector import MetricsCollector
from repro.obs.timeline import TimelineSampler
from repro.sim.engine import disk_utilisation
from repro.sim.replay import (
    ReplayConfig,
    ReplayResult,
    close_timeline,
    open_timeline,
    size_disks,
)
from repro.sim.request import IORequest, OpType
from repro.storage.disk import Disk
from repro.storage.namespace import NamespaceMapper
from repro.storage.raid import RaidArray, RaidLevel
from repro.traces.columnar import ColumnarTrace, MergedColumns, merge_columnar
from repro.traces.format import Trace

__all__ = ["batch_eligible", "replay_columnar", "DEFAULT_BATCH_SIZE"]

#: Planning window, in requests.  Large enough to amortise the NumPy
#: slicing per batch, small enough to keep materialised request
#: windows cache-friendly; results are invariant to it (tested).
DEFAULT_BATCH_SIZE = 4096

#: Heap entry kinds for the servicing loop (compared after seq, so the
#: values never decide order -- seqs are unique).
_FINISH = 0
_TICK = 1


def batch_eligible(config: ReplayConfig) -> bool:
    """Can this replay config take the columnar fast path?

    The batch driver reproduces the *fast* path of the event loop:
    analytic FCFS disks, healthy array, no SSD tier, no spans or jobs,
    no invariant checking.  A timeline and SLO policy are carried.
    Anything else falls back to the object path (bit-identical, just
    slower); so does any replay given a trace recorder.
    """
    return (
        config.scheduler is None
        and config.failed_disk is None
        and config.ssd_params is None
        and not config.check_invariants
        and config.faults is None
        and config.fault_seed is None
        and not config.spans
        and config.jobs is None
    )


def _as_columnar(trace: Union[Trace, ColumnarTrace]) -> ColumnarTrace:
    if isinstance(trace, ColumnarTrace):
        return trace
    return ColumnarTrace.from_trace(trace)


def replay_columnar(
    traces: Sequence[Union[Trace, ColumnarTrace]],
    scheme: DedupScheme,
    config: ReplayConfig = ReplayConfig(),
    collector: Optional[MetricsCollector] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    per_volume_metrics: bool = True,
) -> ReplayResult:
    """Replay N trace streams through the columnar batch core.

    Accepts :class:`Trace` or :class:`ColumnarTrace` inputs (the shard
    workers of the parallel runner ship columns directly).  Requires a
    :func:`batch_eligible` config -- callers wanting automatic
    fallback should go through ``replay_traces(..., batch_size=...)``.
    """
    if not traces:
        raise ConfigError("replay_columnar needs at least one trace")
    if not batch_eligible(config):
        raise ConfigError("replay config is outside the columnar fast path")
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")

    ctraces = [_as_columnar(t) for t in traces]
    mapper = NamespaceMapper((ct.name, ct.logical_blocks) for ct in ctraces)
    multi = len(ctraces) > 1
    if mapper.total_logical_blocks > scheme.regions.logical_blocks:
        raise ConfigError(
            f"trace touches {mapper.total_logical_blocks} logical blocks but "
            f"the scheme was configured for {scheme.regions.logical_blocks}"
        )
    geometry = config.geometry()
    params = size_disks(scheme.regions.total_blocks, config)
    disks = [Disk(params, disk_id=i) for i in range(geometry.ndisks)]
    raid = RaidArray(geometry)
    metrics = collector if collector is not None else MetricsCollector()
    if per_volume_metrics:
        metrics.track_volumes()
    sampler = open_timeline(config, metrics)

    merged = merge_columnar(
        ctraces, [mapper.volume(vid).base for vid in range(len(ctraces))]
    )
    n = len(merged)
    run_name = (
        ctraces[0].name if not multi else "+".join(ct.name for ct in ctraces)
    )
    total_warmup = sum(ct.warmup_count for ct in ctraces)

    boundary = {"writes": 0, "removed": 0}
    t_end = 0.0
    if n:
        # The batch core churns short-lived acyclic objects (plans and
        # volume ops die by refcount); generational GC scans are pure
        # overhead here, so gate the collector off for the hot loop.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            t_end = _replay_merged(
                merged, scheme, raid, disks, metrics, config, batch_size,
                multi, boundary, sampler,
            )
        finally:
            if gc_was_enabled:
                gc.enable()

    volumes: List[Dict[str, Any]] = []
    if per_volume_metrics:
        tracked = set(metrics.volume_ids())
        for ns in mapper:
            entry: Dict[str, Any] = {
                "volume_id": ns.volume_id,
                "name": ns.name,
                "logical_blocks": ns.logical_blocks,
            }
            if ns.volume_id in tracked:
                entry.update(metrics.volume_as_dict(ns.volume_id))
            else:  # volume with no measured traffic
                entry["requests"] = 0
            volumes.append(entry)

    slo_stats = close_timeline(sampler, config, t_end)
    timeline = getattr(scheme.cache, "epoch_timeline", [])
    scheme_stats = scheme.stats()
    return ReplayResult(
        trace_name=run_name,
        scheme_name=scheme.name,
        metrics=metrics,
        scheme_stats=scheme_stats,
        utilisation=disk_utilisation(disks),
        capacity_blocks=scheme_stats["capacity_blocks"],
        writes_total=scheme.writes_total - boundary["writes"],
        write_requests_removed=(
            scheme.write_requests_removed - boundary["removed"]
        ),
        epoch_timeline=[
            e.as_dict() if hasattr(e, "as_dict") else dict(e) for e in timeline
        ],
        volumes=volumes,
        timeline=sampler,
        slo_stats=slo_stats,
    )


def _replay_merged(
    merged: MergedColumns,
    scheme: DedupScheme,
    raid: RaidArray,
    disks: List[Disk],
    metrics: MetricsCollector,
    config: ReplayConfig,
    batch_size: int,
    multi: bool,
    boundary: Dict[str, int],
    sampler: Optional[TimelineSampler],
) -> float:
    """Plan (windowed, batched) and service (event-ordered) the merged
    stream.  Mutates ``scheme``/``disks``/``metrics``/``boundary`` and
    feeds ``sampler``; returns the clock of the last event."""
    n = len(merged)
    times = merged.times
    times_l = times.tolist()
    lbas_l = merged.lbas.tolist()
    nblocks_l = merged.nblocks.tolist()
    vids_l = merged.volume_ids.tolist()
    is_write_l = (merged.ops == 1).tolist()
    offsets_l = merged.fp_offsets.tolist()
    fp_ids_l = merged.fp_ids.tolist()
    pool = merged.pool
    measured_l = merged.measured.tolist()
    collect_warmup = config.collect_warmup

    # Fig. 11 boundary snapshot position: the first measured arrival
    # (see replay_traces -- the snapshot happens *before* that request
    # is processed, so planning splits there).
    measured_idx = np.flatnonzero(merged.measured)
    boundary_idx: int = int(measured_idx[0]) if len(measured_idx) else n

    # ------------------------------------------------------------------
    # epoch tick schedule (times accumulate exactly as the event loop's
    # reschedule chain does: T_{k+1} = T_k + interval in float64).
    # ------------------------------------------------------------------
    tick_times: List[float] = []
    tick_wends: List[int] = []
    if scheme.epoch_interval is not None:
        interval = scheme.epoch_interval
        if interval <= 0:
            raise ConfigError("epoch interval must be positive")
        last_arrival = times_l[-1]
        t = times_l[0] + interval
        while True:
            tick_times.append(t)
            nxt = t + interval
            if nxt > last_arrival + interval:
                break
            t = nxt
        # Planning-window end per tick: first arrival strictly after
        # the tick (arrivals at the tick's exact time precede it --
        # their heap seqs were assigned at setup).
        tick_wends = np.searchsorted(times, tick_times, side="right").tolist()

    # ------------------------------------------------------------------
    # timeline segments: maximal arrival runs inside one sampler window
    # (``TimelineSampler.window_index`` arithmetic, vectorised).  The
    # object path notes ``nvram_bytes``/``queue_lag`` at every arrival;
    # gauges are per-window maxima, so one note per segment carrying
    # the segment's maxima writes the same windows.
    # ------------------------------------------------------------------
    seg_starts: List[int] = []
    seg_ends: List[int] = []
    seg_nvram: List[int] = []
    seg_lag: List[float] = []
    if sampler is not None:
        origin = sampler.config.origin
        wins = np.where(
            times < origin, 0.0, (times - origin) / sampler.config.window
        ).astype(np.int64)
        seg_ends = (np.flatnonzero(np.diff(wins)) + 1).tolist()
        seg_starts = [0] + seg_ends
        seg_ends.append(n)
        seg_nvram = [0] * len(seg_starts)
        seg_lag = [0.0] * len(seg_starts)

    # ------------------------------------------------------------------
    # planning state
    # ------------------------------------------------------------------
    planned: List[Optional[PlannedIO]] = [None] * n
    cross: List[int] = [0] * n
    tick_ops: List[list] = []
    #: Multi-volume runs: the volume that first wrote each fingerprint
    #: id (the merged pool interns values, so ids compare like values).
    fp_owner: Optional[Dict[int, int]] = {} if multi else None
    plan_cursor = 0
    plan_tick = 0
    plan_columns = scheme.plan_columns
    raw = IORequest.raw
    write_op = OpType.WRITE
    read_op = OpType.READ

    def _plan_range(a: int, b: int, nvram: Optional[List[int]]) -> None:
        """Plan arrivals [a, b) straight off the column lists (never
        crosses a tick window, a timeline segment or the warm-up
        boundary); fills ``nvram`` as documented on
        ``DedupScheme.plan_columns``."""
        if a == boundary_idx:
            boundary["writes"] = scheme.writes_total
            boundary["removed"] = scheme.write_requests_removed
        plans = plan_columns(
            a, b, times_l, is_write_l, lbas_l, nblocks_l, vids_l,
            offsets_l, fp_ids_l, pool, nvram_out=nvram,
        )
        planned[a:b] = plans
        if fp_owner is not None:
            # Cross-volume redundancy: a deduplicated chunk whose raw
            # fingerprint some other volume wrote first.
            owner_get = fp_owner.get
            owner_set = fp_owner.setdefault
            for i in range(a, b):
                if not is_write_l[i]:
                    continue
                ids = fp_ids_l[offsets_l[i] : offsets_l[i + 1]]
                vid = vids_l[i]
                c = 0
                for k in plans[i - a].deduped_idx:
                    owner = owner_get(ids[k])
                    if owner is not None and owner != vid:
                        c += 1
                for fid in ids:
                    owner_set(fid, vid)
                if c:
                    cross[i] = c

    def _plan_chunk() -> None:
        """Advance planning by (up to) one batch or one tick."""
        nonlocal plan_cursor, plan_tick
        cursor = plan_cursor
        tick = plan_tick
        wend = tick_wends[tick] if tick < len(tick_wends) else n
        if cursor >= wend and tick < len(tick_times):
            # Every arrival in this window is planned: fire the tick's
            # scheme-state half (its disk half runs in event order).
            tick_ops.append(scheme.on_epoch(tick_times[tick]))
            if sampler is not None:
                # iCache partition sizes move only here; gauges keep
                # per-window maxima, so noting them at plan time is
                # the event loop's note at the tick.
                sampler.note_gauges(
                    tick_times[tick],
                    icache_index_bytes=float(scheme.cache.index.capacity_bytes),
                    icache_read_bytes=float(scheme.cache.read.capacity_bytes),
                )
            plan_tick = tick + 1
            return
        stop = min(wend, cursor + batch_size)
        if cursor < boundary_idx < stop:
            stop = boundary_idx
        if sampler is None:
            _plan_range(cursor, stop, None)
        else:
            # Stay inside one timeline segment and fold the NVRAM bytes
            # read before each planned arrival into its maximum.
            k = bisect_right(seg_starts, cursor) - 1
            stop = min(stop, seg_ends[k])
            nvram: List[int] = []
            _plan_range(cursor, stop, nvram)
            if nvram:
                seg_nvram[k] = max(seg_nvram[k], max(nvram))
        plan_cursor = stop

    def ensure_planned(idx: int) -> None:
        while plan_cursor <= idx:
            _plan_chunk()

    def ensure_tick_planned(k: int) -> None:
        while plan_tick <= k:
            _plan_chunk()

    # ------------------------------------------------------------------
    # servicing: exact replay of the engine's (time, seq) event order.
    # Arrival events got seqs 0..n-1 at setup, so every callback seq is
    # larger -- an arrival always wins a timestamp tie.
    # ------------------------------------------------------------------
    heap: List[Tuple[float, int, int, int]] = []
    seq = n
    if tick_times:
        heappush(heap, (tick_times[0], seq, _TICK, 0))
        seq += 1

    raid_map = raid.map
    record = metrics.record
    interval_f = scheme.epoch_interval if scheme.epoch_interval is not None else 0.0
    last_arrival_f = times_l[-1]

    # ------------------------------------------------------------------
    # disk mechanics, mirrored into flat locals.  Every service goes
    # through ``_svc`` below and the state is flushed back to the Disk
    # objects once at the end.  The per-disk accumulation order equals
    # the object path's ``Disk.service`` call order, so every float is
    # bit-identical; the bounds check is elided (raid-mapped ops on
    # disks sized by ``size_disks`` are in bounds by construction, and
    # the eligibility gate excludes fail-slow windows).
    # ------------------------------------------------------------------
    g = raid.geometry
    su = g.stripe_unit_blocks
    nd = g.ndisks
    nd1 = nd - 1
    dd = g.data_disks
    raid5 = g.level is RaidLevel.RAID5
    params = disks[0].params
    d_total = params.total_blocks
    smin = params.seek_min
    sdelta = params.seek_max - params.seek_min
    rate = params.transfer_rate
    overhead = params.controller_overhead
    rot = 60.0 / params.rpm / 2.0
    sqrt = math.sqrt
    blk = BLOCK_SIZE
    #: Per-length memo for the RAID-5 read-modify-write rewrite op:
    #: after reading ``(dpba, n)`` the head sits at ``dpba + n``, so
    #: the immediate rewrite always seeks a distance of exactly ``n``
    #: -- its seek / transfer / duration depend on ``n`` alone.
    rmw: Dict[int, Tuple[float, float, float]] = {}
    rmw_get = rmw.get
    d_head = [d.head for d in disks]
    d_busy = [d.busy_until for d in disks]
    d_ops = [d.ops_serviced for d in disks]
    d_blocks = [d.blocks_moved for d in disks]
    d_busyt = [d.busy_time for d in disks]
    d_seek = [d.seek_time_total for d in disks]
    d_rot = [d.rotation_time_total for d in disks]
    d_xfer = [d.transfer_time_total for d in disks]

    def _svc(d: int, now: float, pba: int, n: int) -> float:
        """``Disk.service`` on the mirrored locals (bit-identical)."""
        busy = d_busy[d]
        start = busy if busy > now else now
        dist = pba - d_head[d]
        if dist < 0:
            dist = -dist
        if dist > 0:
            frac = dist / d_total
            if frac > 1.0:
                frac = 1.0
            seek = smin + sdelta * sqrt(frac)
            rot_t = rot
        else:
            seek = 0.0
            rot_t = 0.0
        transfer = n * blk / rate
        duration = overhead + seek + rot_t + transfer
        d_head[d] = pba + n
        done = start + duration
        d_busy[d] = done
        d_ops[d] += 1
        d_blocks[d] += n
        d_busyt[d] += duration
        d_seek[d] += seek
        d_rot[d] += rot_t
        d_xfer[d] += transfer
        return done

    def _finish(i: int, issue_time: float) -> None:
        plan = planned[i]
        assert plan is not None
        if plan.ssd_read_blocks or plan.ssd_write_blocks:
            raise ConfigError(
                f"scheme {scheme.name} emitted SSD traffic but the replay "
                "has no ssd_params configured"
            )
        completion = issue_time
        for vop in plan.volume_ops:
            pba = vop.pba
            n = vop.nblocks
            offset = pba % su
            if offset + n <= su:
                # Extent inside one stripe unit: the raid mapping is a
                # single fragment, computed without DiskOp objects
                # (``RaidArray.locate`` arithmetic inlined).  A RAID-5
                # write of one fragment is always a partial stripe
                # (data_disks >= 2), i.e. the fixed read-modify-write
                # sequence data read/write then parity read/write.
                unit = pba // su
                row = unit // dd
                lane = unit - row * dd
                dpba = row * su + offset
                if raid5:
                    parity = nd1 - row % nd
                    disk = (parity + 1 + lane) % nd
                    if vop.op is read_op:
                        done = _svc(disk, issue_time, dpba, n)
                        if done > completion:
                            completion = done
                    else:
                        # Data R+W then parity R+W, ``_svc`` inlined:
                        # the rewrite half of each pair starts at the
                        # read's completion and reuses the memoized
                        # distance-``n`` seek.  Identical per-disk
                        # accumulation order (one add per op), so every
                        # float matches the generic path bit-for-bit.
                        m = rmw_get(n)
                        if m is None:
                            frac = n / d_total
                            if frac > 1.0:
                                frac = 1.0
                            sk = smin + sdelta * sqrt(frac)
                            tr = n * blk / rate
                            m = (sk, tr, overhead + sk + rot + tr)
                            rmw[n] = m
                        seek_n, transfer, dur_n = m
                        end = dpba + n
                        two_n = n + n
                        dk = disk
                        while True:
                            busy = d_busy[dk]
                            start = busy if busy > issue_time else issue_time
                            dist = dpba - d_head[dk]
                            if dist < 0:
                                dist = -dist
                            if dist > 0:
                                if dist == n:
                                    d_seek[dk] += seek_n
                                    duration = dur_n
                                else:
                                    frac = dist / d_total
                                    if frac > 1.0:
                                        frac = 1.0
                                    seek = smin + sdelta * sqrt(frac)
                                    d_seek[dk] += seek
                                    duration = overhead + seek + rot + transfer
                                d_rot[dk] += rot
                            else:
                                duration = overhead + transfer
                            done = start + duration
                            start = done if done > issue_time else issue_time
                            done = start + dur_n
                            d_busy[dk] = done
                            d_head[dk] = end
                            d_ops[dk] += 2
                            d_blocks[dk] += two_n
                            t = d_busyt[dk] + duration
                            d_busyt[dk] = t + dur_n
                            d_seek[dk] += seek_n
                            d_rot[dk] += rot
                            d_xfer[dk] += transfer
                            d_xfer[dk] += transfer
                            if done > completion:
                                completion = done
                            if dk == parity:
                                break
                            dk = parity
                else:
                    done = _svc(lane % nd, issue_time, dpba, n)
                    if done > completion:
                        completion = done
            elif nd == 1:
                # Single spindle: ``_split`` merges the unit fragments
                # back into one contiguous disk op (disk PBA == volume
                # PBA), for reads and writes alike.
                done = _svc(0, issue_time, pba, n)
                if done > completion:
                    completion = done
            elif offset + n <= 2 * su and (pba // su) % dd != dd - 1:
                # Crosses exactly one stripe-unit boundary and the
                # second fragment stays in the same row: two data
                # fragments on adjacent lanes; a RAID-5 write pays
                # read-modify-write per fragment, then the merged
                # parity range(s) -- ``map_write``'s exact op order.
                unit = pba // su
                row = unit // dd
                lane = unit - row * dd
                n1 = su - offset
                n2 = n - n1
                dpba1 = row * su + offset
                dpba2 = row * su
                if raid5:
                    parity = nd1 - row % nd
                    disk1 = (parity + 1 + lane) % nd
                    disk2 = (parity + 2 + lane) % nd
                else:
                    parity = -1
                    disk1 = lane % nd
                    disk2 = (lane + 1) % nd
                if vop.op is read_op or not raid5:
                    done = _svc(disk1, issue_time, dpba1, n1)
                    if done > completion:
                        completion = done
                    done = _svc(disk2, issue_time, dpba2, n2)
                    if done > completion:
                        completion = done
                else:
                    done = _svc(disk1, issue_time, dpba1, n1)
                    if done > completion:
                        completion = done
                    done = _svc(disk1, issue_time, dpba1, n1)
                    if done > completion:
                        completion = done
                    done = _svc(disk2, issue_time, dpba2, n2)
                    if done > completion:
                        completion = done
                    done = _svc(disk2, issue_time, dpba2, n2)
                    if done > completion:
                        completion = done
                    # Parity ranges [(dpba1, n1), (dpba2, n2)] sort to
                    # [(dpba2, n2), (dpba1, n1)] and merge into one
                    # full-unit range iff they touch (offset <= n2;
                    # fragment 1 always ends at the unit boundary).
                    if offset <= n2:
                        done = _svc(parity, issue_time, dpba2, su)
                        if done > completion:
                            completion = done
                        done = _svc(parity, issue_time, dpba2, su)
                        if done > completion:
                            completion = done
                    else:
                        done = _svc(parity, issue_time, dpba2, n2)
                        if done > completion:
                            completion = done
                        done = _svc(parity, issue_time, dpba2, n2)
                        if done > completion:
                            completion = done
                        done = _svc(parity, issue_time, dpba1, n1)
                        if done > completion:
                            completion = done
                        done = _svc(parity, issue_time, dpba1, n1)
                        if done > completion:
                            completion = done
            elif offset + n <= 2 * su:
                # Crosses exactly one stripe-unit boundary from the
                # last data lane of its row into lane 0 of the next
                # row: two fragments in *different* parity rows.
                # ``map_write`` groups by parity row (sorted order),
                # and each row is a partial stripe (a fragment never
                # covers a whole row when data_disks >= 2), so a
                # RAID-5 write pays data RMW + parity RMW for row r,
                # then the same for row r+1.
                unit = pba // su
                row = unit // dd
                n1 = su - offset
                n2 = n - n1
                dpba1 = row * su + offset
                row2 = row + 1
                dpba2 = row2 * su
                if raid5:
                    p1 = nd1 - row % nd
                    disk1 = (p1 + nd1) % nd  # lane == dd-1 == nd-2
                    p2 = nd1 - row2 % nd
                    disk2 = (p2 + 1) % nd  # lane 0 of the next row
                else:
                    p1 = p2 = -1
                    disk1 = nd1  # lane == dd-1 == nd-1 on RAID-0
                    disk2 = 0
                if vop.op is read_op or not raid5:
                    done = _svc(disk1, issue_time, dpba1, n1)
                    if done > completion:
                        completion = done
                    done = _svc(disk2, issue_time, dpba2, n2)
                    if done > completion:
                        completion = done
                else:
                    done = _svc(disk1, issue_time, dpba1, n1)
                    if done > completion:
                        completion = done
                    done = _svc(disk1, issue_time, dpba1, n1)
                    if done > completion:
                        completion = done
                    done = _svc(p1, issue_time, dpba1, n1)
                    if done > completion:
                        completion = done
                    done = _svc(p1, issue_time, dpba1, n1)
                    if done > completion:
                        completion = done
                    done = _svc(disk2, issue_time, dpba2, n2)
                    if done > completion:
                        completion = done
                    done = _svc(disk2, issue_time, dpba2, n2)
                    if done > completion:
                        completion = done
                    done = _svc(p2, issue_time, dpba2, n2)
                    if done > completion:
                        completion = done
                    done = _svc(p2, issue_time, dpba2, n2)
                    if done > completion:
                        completion = done
            else:
                for op in raid_map(vop):
                    done = _svc(op.disk_id, issue_time, op.pba, op.nblocks)
                    if done > completion:
                        completion = done
        if collect_warmup or measured_l[i]:
            # Planning kept no request object; build the minimal one
            # the collector reads (op / nblocks / volume id -- it never
            # touches fingerprints).
            req = raw(
                times_l[i],
                write_op if is_write_l[i] else read_op,
                lbas_l[i],
                nblocks_l[i],
                None,
                i,
                vids_l[i],
            )
            record(
                req,
                times_l[i],
                completion,
                plan.eliminated,
                plan.cache_hit_blocks,
                plan.deduped_blocks,
                cross[i],
            )
        if plan.background_ops:
            for vop in plan.background_ops:
                for op in raid_map(vop):
                    _svc(op.disk_id, issue_time, op.pba, op.nblocks)
        # Nothing reads a finished request's plan again: drop it so
        # plan-ahead does not keep it alive.
        planned[i] = None

    seg_k = 0
    seg_next = seg_ends[0] if seg_ends else n

    def _note_lag(i: int, now: float) -> None:
        """The event loop's ``queue_lag`` gauge at arrival ``i``: the
        worst disk backlog past ``now`` (``Simulator.queue_lag``),
        folded into the arrival's segment maximum."""
        nonlocal seg_k, seg_next
        if i == seg_next:
            seg_k += 1
            seg_next = seg_ends[seg_k]
        lag = max(d_busy) - now
        if lag > seg_lag[seg_k]:
            seg_lag[seg_k] = lag

    cursor = 0
    t_last = last_arrival_f
    if not tick_times:
        # No epoch ticks: the event stream is pure in-order arrivals
        # until some plan carries a delay (then the generic heap loop
        # below takes over from the current position).
        while cursor < n:
            i = cursor
            if plan_cursor <= i:
                ensure_planned(i)
            plan = planned[i]
            assert plan is not None
            if plan.delay > 0:
                break
            cursor = i + 1
            if sampler is not None:
                _note_lag(i, times_l[i])
            _finish(i, times_l[i])
    while cursor < n or heap:
        if cursor < n and (not heap or times_l[cursor] <= heap[0][0]):
            i = cursor
            cursor += 1
            if plan_cursor <= i:
                ensure_planned(i)
            plan = planned[i]
            assert plan is not None
            now = times_l[i]
            if sampler is not None:
                _note_lag(i, now)
            if plan.delay > 0:
                heappush(heap, (now + plan.delay, seq, _FINISH, i))
                seq += 1
            else:
                _finish(i, now)
        else:
            t, _s, kind, payload = heappop(heap)
            t_last = t
            if kind == _FINISH:
                _finish(payload, t)
            else:
                ensure_tick_planned(payload)
                ops = tick_ops[payload]
                if ops:
                    for vop in ops:
                        for op in raid_map(vop):
                            _svc(op.disk_id, t, op.pba, op.nblocks)
                nxt = t + interval_f
                if nxt <= last_arrival_f + interval_f:
                    heappush(heap, (nxt, seq, _TICK, payload + 1))
                    seq += 1
    # Drain remaining planning (ticks past the last arrival's window
    # were already popped above; anything left is warm-up-only traces
    # with no events -- impossible here since n > 0 -- or final ticks
    # whose planning fired inside the loop).
    ensure_planned(n - 1)
    if sampler is not None:
        for k, start in enumerate(seg_starts):
            sampler.note_gauges(
                times_l[start],
                nvram_bytes=float(seg_nvram[k]),
                queue_lag=seg_lag[k],
            )
    # Flush the mirrored disk state back to the Disk objects.
    for d, disk in enumerate(disks):
        disk.head = d_head[d]
        disk.busy_until = d_busy[d]
        disk.ops_serviced = d_ops[d]
        disk.blocks_moved = d_blocks[d]
        disk.busy_time = d_busyt[d]
        disk.seek_time_total = d_seek[d]
        disk.rotation_time_total = d_rot[d]
        disk.transfer_time_total = d_xfer[d]
    # Events pop in time order: the last arrival or heap pop is the
    # final clock (``Simulator.now`` after ``run``).
    return max(t_last, last_arrival_f)
