"""Columnar batch replay: the vectorized driver of the fast path.

The event loop (:func:`repro.cluster.replay.replay_cluster`, which
runs single-node replays as a one-node cluster) plans each request in
its arrival handler and pays interpreter dispatch per event.  This
driver exploits three structural facts of the fast path (what
:data:`~repro.sim.replay.CAPABILITIES` gives it: no faults, jobs,
spans, SSD tier, invariant checks or trace recorder):

1. **Planning is clock-free.**  ``scheme.process(request, now)`` never
   reads ``now`` on the fast path (it only feeds spans and recorders),
   so requests can be planned in arrival order *ahead* of disk
   servicing.
2. **Completion is scheme-free.**  Finishing a request touches only
   the disks and the metrics collector, never scheme state.
3. **Epoch ticks are the only interleaving.**  A scheme's ``on_epoch``
   does mutate scheme state, so plan-ahead is windowed: all arrivals
   up to a tick's timestamp are planned (in arrival order) before the
   tick fires, exactly the order the event loop produces (arrivals
   win timestamp ties against every callback scheduled after they are
   handed over to the engine, epoch ticks included).

Planning proceeds in batches straight off the merged columnar trace
(:mod:`repro.traces.columnar`, :meth:`DedupScheme.plan_columns`); the
disk phase replays completions through one arrival-cursor +
callback-heap loop that reproduces the engine's ``(time, seq)`` event
order, issuing through :meth:`RaidArray.service` (a degraded array
included).  Measured completions are buffered as columns and folded
every ``batch_size`` into the collector with one
:meth:`MetricsCollector.record_columns` call, which feeds an armed
timeline the per-window counts, histograms and SLO good/bad counts
per-completion records would.  The timeline's gauges are per-window
maxima and so order-free: the ``nvram_bytes`` before each request and
the ``queue_lag`` at each arrival (from a running maximum of disk
completions) are folded per window, and the iCache partition sizes are
noted as each tick's ``on_epoch`` runs.

The result is **bit-identical** to the one-node event loop for every
scheme and any batch size (pinned by golden tests), at a multiple of
its throughput (see ``BENCH_replay.json`` and ``docs/performance.md``).
``replay_trace``/``replay_traces`` take it for every run whose
driver cells in :data:`~repro.sim.replay.CAPABILITIES` carry it.  Node
build, collector arming and the result come from
:class:`~repro.sim.replay.ReplayScaffold`, which the event loop shares;
this driver is its one-node case.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from heapq import heappop, heappush
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines.base import DedupScheme, PlannedIO
from repro.errors import ConfigError
from repro.metrics.collector import Completions, MetricsCollector
from repro.sim.replay import (
    DEFAULT_BATCH_SIZE,
    ReplayConfig,
    ReplayResult,
    ReplayScaffold,
)
from repro.traces.columnar import ColumnarTrace, MergedColumns, merge_columnar
from repro.traces.format import Trace

__all__ = ["replay_columnar", "DEFAULT_BATCH_SIZE"]

#: Heap entry kinds for the servicing loop (compared after seq, so the
#: values never decide order -- seqs are unique).
_FINISH = 0
_TICK = 1


def _cross_volume_chunks(merged: MergedColumns) -> np.ndarray:
    """Per write chunk of the merged stream: did another volume write
    its raw fingerprint first?  A deduplicated chunk so flagged is
    cross-volume redundancy (one first-occurrence pass; the merged pool
    interns values, so ids compare like values)."""
    chunk_vol = np.repeat(merged.volume_ids, np.diff(merged.fp_offsets))
    _ids, first, inverse = np.unique(
        merged.fp_ids, return_index=True, return_inverse=True
    )
    return chunk_vol[first][inverse] != chunk_vol


def replay_columnar(
    traces: Sequence[Union[Trace, ColumnarTrace]],
    scheme: DedupScheme,
    config: ReplayConfig = ReplayConfig(),
    collector: Optional[MetricsCollector] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    per_volume_metrics: bool = True,
) -> ReplayResult:
    """Replay N trace streams through the columnar batch core.

    Accepts :class:`Trace` or :class:`ColumnarTrace` inputs and reads
    their columns as they are (a trace is its columns; the experiment
    runner's pool workers hand over the columns it ships them).  Takes only
    runs :data:`~repro.sim.replay.CAPABILITIES` gives the driver;
    :func:`repro.sim.replay.replay_traces` routes every other run to
    the one-node event loop.
    """
    if not traces:
        raise ConfigError("replay_columnar needs at least one trace")
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")

    ctraces = [t.columns for t in traces]
    scaffold = ReplayScaffold(
        ctraces, [scheme], config, collector, per_volume_metrics, [0] * len(ctraces)
    )
    merged = merge_columnar(ctraces, scaffold.bases)
    t_end = 0.0
    if len(merged):
        # The batch core churns short-lived acyclic objects (plans and
        # volume ops die by refcount); generational GC scans are pure
        # overhead here, so gate the collector off for the hot loop.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            t_end = _replay_merged(merged, scaffold, batch_size)
        finally:
            if gc_was_enabled:
                gc.enable()
    return scaffold.result(t_end)


def _replay_merged(
    merged: MergedColumns, scaffold: ReplayScaffold, batch_size: int
) -> float:
    """Plan (windowed, batched) and service (event-ordered) the merged
    stream.  Mutates the scheme, disks, collector and warm-up boundary
    of ``scaffold`` and feeds its sampler; returns the clock of the last
    event."""
    node = scaffold.nodes[0]
    scheme = node.scheme
    config = scaffold.config
    disks = node.disks
    metrics = scaffold.metrics
    sampler = scaffold.sampler
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
    # event loop notes ``nvram_bytes``/``queue_lag`` at every arrival;
    # gauges are per-window maxima, so one note per segment carrying
    # the segment's maxima writes the same windows.  Planning batches
    # ignore segments: each batch's per-arrival NVRAM bytes are folded
    # into the maxima of the segments it spans.
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
    cross_flags = _cross_volume_chunks(merged) if scaffold.multi else None
    # CDC: one column pass over the whole write stream (its cuts depend
    # on the stream alone); planning builds each window's effective
    # fingerprints from the columns.
    chunk_cols = (
        scheme.chunker.columns(merged.fp_ids, pool)
        if scheme.chunker is not None
        else None
    )
    plan_cursor = 0
    plan_tick = 0
    plan_columns = scheme.plan_columns

    def _plan_range(a: int, b: int) -> None:
        """Plan arrivals [a, b) straight off the column lists (never
        crosses a tick window or the warm-up boundary) and fold the
        NVRAM bytes read before each arrival (``nvram_out`` on
        ``DedupScheme.plan_columns``) into its segment's maximum."""
        if a == boundary_idx:
            scaffold.mark_boundary()
        nvram: Optional[List[int]] = None if sampler is None else []
        plans = plan_columns(
            a, b, times_l, is_write_l, lbas_l, nblocks_l, vids_l,
            offsets_l, fp_ids_l, pool, nvram_out=nvram, chunk_cols=chunk_cols,
        )
        if nvram:
            k = bisect_right(seg_starts, a) - 1
            lo = a
            while lo < b:
                hi = min(seg_ends[k], b)
                peak = max(nvram[lo - a : hi - a])
                if peak > seg_nvram[k]:
                    seg_nvram[k] = peak
                lo = hi
                k += 1
        planned[a:b] = plans
        if cross_flags is not None:
            k0 = offsets_l[a]
            flags = cross_flags[k0 : offsets_l[b]]
            if flags.any():
                flags_l = flags.tolist()
                for i in range(a, b):
                    deduped = plans[i - a].deduped_idx
                    if deduped:
                        base = offsets_l[i] - k0
                        c = sum([flags_l[base + k] for k in deduped])
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
        _plan_range(cursor, stop)
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

    service = node.raid.service
    failed_disk = node.failed_disk
    interval_f = scheme.epoch_interval if scheme.epoch_interval is not None else 0.0
    last_arrival_f = times_l[-1]

    # ------------------------------------------------------------------
    # measured completions, buffered as columns and folded into the
    # collector (and through it the timeline) every ``batch_size``
    # completions: one ``record_columns`` call instead of one
    # ``record`` per completion, in the same completion order.
    # ------------------------------------------------------------------
    done_idx: List[int] = []
    done_time: List[float] = []
    done_elim: List[bool] = []
    done_hit: List[int] = []
    done_dedup: List[int] = []
    is_read = merged.ops != 1

    def _fold() -> None:
        idx = np.array(done_idx, dtype=np.int64)
        metrics.record_columns(Completions(
            req_id=idx,
            is_read=is_read[idx],
            nblocks=merged.nblocks[idx].astype(np.int64),
            volume_id=merged.volume_ids[idx].astype(np.int64),
            arrival=times[idx],
            completion=np.array(done_time, dtype=np.float64),
            eliminated=np.array(done_elim, dtype=bool),
            cache_hit_blocks=np.array(done_hit, dtype=np.int64),
            deduped_blocks=np.array(done_dedup, dtype=np.int64),
            cross_volume_blocks=np.array(
                [cross[k] for k in done_idx], dtype=np.int64
            ),
        ))
        for buf in (done_idx, done_time, done_elim, done_hit, done_dedup):
            buf.clear()

    #: Latest completion any disk service has returned: every member's
    #: busy horizon only grows (``Disk.service``/``service_rmw`` set it
    #: to the completion they return, and ``RaidArray.service`` returns
    #: the latest of its ops), so it is the latest member horizon, and
    #: a positive ``horizon - now`` is ``queue_lag(disks, now)``.
    #: (Events run in time order: an op-less service's ``now`` folded
    #: in here never exceeds a later arrival's.)
    horizon = 0.0

    def _finish(i: int, issue_time: float) -> None:
        nonlocal horizon
        plan = planned[i]
        assert plan is not None
        completion = issue_time
        for vop in plan.volume_ops:
            done = service(disks, issue_time, vop, failed_disk)
            if done > completion:
                completion = done
        if completion > horizon:
            horizon = completion
        if collect_warmup or measured_l[i]:
            done_idx.append(i)
            done_time.append(completion)
            done_elim.append(plan.eliminated)
            done_hit.append(plan.cache_hit_blocks)
            done_dedup.append(plan.deduped_blocks)
            if len(done_idx) >= batch_size:
                _fold()
        for vop in plan.background_ops:
            done = service(disks, issue_time, vop, failed_disk)
            if done > horizon:
                horizon = done
        # Nothing reads a finished request's plan again: drop it so
        # plan-ahead does not keep it alive.
        planned[i] = None

    # The event loop's ``queue_lag`` gauge at each arrival: the worst
    # disk backlog past its time, folded into its segment's maximum.
    seg_k = 0
    seg_next = seg_ends[0] if seg_ends else n

    cursor = 0
    t_last = last_arrival_f
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
                if i == seg_next:
                    seg_k += 1
                    seg_next = seg_ends[seg_k]
                if horizon - now > seg_lag[seg_k]:
                    seg_lag[seg_k] = horizon - now
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
                for vop in tick_ops[payload]:
                    done = service(disks, t, vop, failed_disk)
                    if done > horizon:
                        horizon = done
                nxt = t + interval_f
                if nxt <= last_arrival_f + interval_f:
                    heappush(heap, (nxt, seq, _TICK, payload + 1))
                    seq += 1
    # Drain remaining planning (ticks past the last arrival's window
    # were already popped above; anything left is warm-up-only traces
    # with no events -- impossible here since n > 0 -- or final ticks
    # whose planning fired inside the loop).
    ensure_planned(n - 1)
    if done_idx:
        _fold()
    if sampler is not None:
        for k, start in enumerate(seg_starts):
            sampler.note_gauges(
                times_l[start],
                nvram_bytes=float(seg_nvram[k]),
                queue_lag=seg_lag[k],
            )
    # Events pop in time order: the last arrival or heap pop is the
    # final clock (``Simulator.now`` after ``run``).
    return max(t_last, last_arrival_f)
