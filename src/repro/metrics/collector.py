"""Response-time collection.

The paper "replayed the three traces at the block level and evaluated
the user response times" (Section IV-A), reporting the average
response time of all requests, and of reads and writes separately
(Figs. 8, 9).

The collector is built on :mod:`repro.obs.registry`: per-request
samples stream into fixed-bucket latency histograms (p50/p95/p99/p999
without storing every sample) and named counters, so memory stays
O(buckets) on production-size replays and two collectors' registries
can be merged for sharded runs.  :class:`ResponseSummary` keeps its
historical API; callers that need exact per-request samples use
:class:`repro.metrics.analysis.DetailedCollector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional

import numpy as np

from repro.errors import SimulationError
from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    first_seen,
    group_sums,
    observe_grouped,
)
from repro.sim.request import IORequest, OpType


@dataclass(frozen=True)
class ResponseSummary:
    """Summary statistics over one class of requests."""

    count: int
    mean: float
    median: float
    p95: float
    p99: float
    total_blocks: int
    #: Tail percentile (added with the observability layer; defaults
    #: keep older positional constructions working).
    p999: float = 0.0

    @staticmethod
    def empty() -> "ResponseSummary":
        return ResponseSummary(0, 0.0, 0.0, 0.0, 0.0, 0)

    @staticmethod
    def of(samples: np.ndarray, total_blocks: int) -> "ResponseSummary":
        """Exact summary from raw samples (analysis helpers use this)."""
        if samples.size == 0:
            return ResponseSummary.empty()
        return ResponseSummary(
            count=int(samples.size),
            mean=float(samples.mean()),
            median=float(np.median(samples)),
            p95=float(np.percentile(samples, 95)),
            p99=float(np.percentile(samples, 99)),
            total_blocks=total_blocks,
            p999=float(np.percentile(samples, 99.9)),
        )

    @staticmethod
    def of_histogram(hist: Histogram, total_blocks: int) -> "ResponseSummary":
        """Streaming summary from a fixed-bucket histogram."""
        if hist.count == 0:
            return ResponseSummary.empty()
        return ResponseSummary(
            count=hist.count,
            mean=hist.mean,
            median=hist.p50,
            p95=hist.p95,
            p99=hist.p99,
            total_blocks=total_blocks,
            p999=hist.p999,
        )


class Completions(NamedTuple):
    """A batch of completed requests as parallel columns: row ``k`` is
    one :meth:`MetricsCollector.record` call (``is_read`` stands for
    the request's op, ``req_id``/``nblocks``/``volume_id`` for its
    fields)."""

    req_id: np.ndarray
    is_read: np.ndarray
    nblocks: np.ndarray
    volume_id: np.ndarray
    arrival: np.ndarray
    completion: np.ndarray
    eliminated: np.ndarray
    cache_hit_blocks: np.ndarray
    deduped_blocks: np.ndarray
    cross_volume_blocks: np.ndarray


def _responses(rows: Completions) -> np.ndarray:
    """``completion - arrival`` per row; a completion before its
    arrival raises before anything is recorded."""
    early = np.flatnonzero(rows.completion < rows.arrival)
    if len(early):
        k = int(early[0])
        raise SimulationError(
            f"request {int(rows.req_id[k])} completed at {rows.completion[k]} "
            f"before its arrival at {rows.arrival[k]}"
        )
    return rows.completion - rows.arrival


class _VolumeSeries:
    """Per-volume metric series (created lazily by the collector).

    Multi-volume replays merge every tenant stream onto one shared
    dedup domain, so the headline numbers alone cannot answer "which
    tenant is slow?" or "whose writes were eliminated?".  One
    ``_VolumeSeries`` accumulates the same response-time histograms
    and elimination counters as the collector itself, scoped to one
    :attr:`~repro.sim.request.IORequest.volume_id`, plus the
    cross-volume vs intra-volume split of deduplicated blocks.
    """

    __slots__ = (
        "read_hist",
        "write_hist",
        "read_blocks",
        "write_blocks",
        "cache_hit_blocks",
        "eliminated_requests",
        "deduped_blocks",
        "cross_volume_deduped_blocks",
    )

    def __init__(self, registry: MetricsRegistry, volume_id: int) -> None:
        prefix = f"volume.{volume_id}"
        self.read_hist = registry.histogram(f"{prefix}.response.read")
        self.write_hist = registry.histogram(f"{prefix}.response.write")
        self.read_blocks = registry.counter(f"{prefix}.read.blocks")
        self.write_blocks = registry.counter(f"{prefix}.write.blocks")
        self.cache_hit_blocks = registry.counter(f"{prefix}.read.cache_hit_blocks")
        self.eliminated_requests = registry.counter(
            f"{prefix}.write.eliminated_requests"
        )
        self.deduped_blocks = registry.counter(f"{prefix}.write.eliminated_blocks")
        self.cross_volume_deduped_blocks = registry.counter(
            f"{prefix}.write.cross_volume_deduped_blocks"
        )


class _NodeSeries:
    """Per-node metric series (created lazily by the collector).

    Cluster replays run N complete POD nodes against one clock; the
    headline numbers alone cannot answer "which node is hot?" or "how
    much response time did the network add?".  One ``_NodeSeries``
    accumulates the same response-time histograms and elimination
    counters as the collector itself, scoped to one cluster node, plus
    the network-cost series (per-request added delay, remote
    fingerprint lookups, remotely-detected duplicate blocks).
    """

    __slots__ = (
        "read_hist",
        "write_hist",
        "net_delay_hist",
        "read_blocks",
        "write_blocks",
        "cache_hit_blocks",
        "eliminated_requests",
        "deduped_blocks",
        "remote_lookups",
        "remote_duplicate_blocks",
    )

    def __init__(self, registry: MetricsRegistry, node_id: int) -> None:
        prefix = f"node.{node_id}"
        self.read_hist = registry.histogram(f"{prefix}.response.read")
        self.write_hist = registry.histogram(f"{prefix}.response.write")
        self.net_delay_hist = registry.histogram(f"{prefix}.net.delay")
        self.read_blocks = registry.counter(f"{prefix}.read.blocks")
        self.write_blocks = registry.counter(f"{prefix}.write.blocks")
        self.cache_hit_blocks = registry.counter(f"{prefix}.read.cache_hit_blocks")
        self.eliminated_requests = registry.counter(
            f"{prefix}.write.eliminated_requests"
        )
        self.deduped_blocks = registry.counter(f"{prefix}.write.eliminated_blocks")
        self.remote_lookups = registry.counter(f"{prefix}.net.remote_lookups")
        self.remote_duplicate_blocks = registry.counter(
            f"{prefix}.net.remote_duplicate_blocks"
        )


class MetricsCollector:
    """Accumulates per-request completion records during a replay.

    All state lives in a :class:`~repro.obs.registry.MetricsRegistry`
    (exposed as :attr:`registry`), which the run report serialises
    directly.

    Per-volume breakdowns are opt-in via :meth:`track_volumes` (the
    multi-volume replay driver enables them); single-volume replays
    skip the per-record bookkeeping entirely so the classic path's
    cost and results are untouched.
    """

    #: Histogram series names (one per request class).
    HIST_READ = "response.read"
    HIST_WRITE = "response.write"

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._read_hist = self.registry.histogram(self.HIST_READ)
        self._write_hist = self.registry.histogram(self.HIST_WRITE)
        self._read_blocks = self.registry.counter("read.blocks")
        self._write_blocks = self.registry.counter("write.blocks")
        self._cache_hit_blocks = self.registry.counter("read.cache_hit_blocks")
        self._elim_requests = self.registry.counter("write.eliminated_requests")
        self._elim_blocks = self.registry.counter("write.eliminated_blocks")
        self.first_arrival: Optional[float] = None
        self.last_completion: float = 0.0
        #: volume_id -> per-volume series (None until track_volumes()).
        self._volumes: Optional[Dict[int, _VolumeSeries]] = None
        #: node_id -> per-node series (None until track_nodes()).
        self._nodes: Optional[Dict[int, _NodeSeries]] = None
        #: Attached windowed sampler (None unless --timeline).  Fed
        #: from record()/record_node() so the timeline's window sums
        #: reconcile with the whole-run aggregates *by construction*.
        self._timeline = None

    def attach_timeline(self, sampler) -> None:
        """Mirror every recorded completion into ``sampler``
        (a :class:`repro.obs.timeline.TimelineSampler`)."""
        self._timeline = sampler

    # ------------------------------------------------------------------
    # per-volume tracking
    # ------------------------------------------------------------------

    def track_volumes(self) -> None:
        """Enable per-volume breakdowns (multi-volume replays)."""
        if self._volumes is None:
            self._volumes = {}

    def _volume_series(self, volume_id: int) -> _VolumeSeries:
        assert self._volumes is not None
        series = self._volumes.get(volume_id)
        if series is None:
            series = _VolumeSeries(self.registry, volume_id)
            self._volumes[volume_id] = series
        return series

    # ------------------------------------------------------------------

    def record(
        self,
        request: IORequest,
        arrival: float,
        completion: float,
        eliminated: bool = False,
        cache_hit_blocks: int = 0,
        deduped_blocks: int = 0,
        cross_volume_blocks: int = 0,
    ) -> None:
        """Record one completed request.

        ``eliminated`` marks a write request that was *fully*
        deduplicated (no data op reached the disks); ``deduped_blocks``
        counts the individual 4 KB blocks whose write was eliminated,
        which also accrues from partially deduplicated requests -- the
        two are distinct metrics (requests vs blocks) and are reported
        separately.  ``cross_volume_blocks`` is the subset of
        ``deduped_blocks`` whose duplicate content was first written by
        a *different* volume (always 0 on single-volume replays).
        """
        if completion < arrival:
            raise SimulationError(
                f"request {request.req_id} completed at {completion} "
                f"before its arrival at {arrival}"
            )
        response = completion - arrival
        if request.op is OpType.READ:
            self._read_hist.observe(response)
            self._read_blocks.inc(request.nblocks)
        else:
            self._write_hist.observe(response)
            self._write_blocks.inc(request.nblocks)
        if eliminated:
            self._elim_requests.inc()
        if deduped_blocks:
            self._elim_blocks.inc(deduped_blocks)
        if cache_hit_blocks:
            self._cache_hit_blocks.inc(cache_hit_blocks)
        if self.first_arrival is None or arrival < self.first_arrival:
            self.first_arrival = arrival
        if completion > self.last_completion:
            self.last_completion = completion
        if self._volumes is not None:
            series = self._volume_series(request.volume_id)
            if request.op is OpType.READ:
                series.read_hist.observe(response)
                series.read_blocks.inc(request.nblocks)
            else:
                series.write_hist.observe(response)
                series.write_blocks.inc(request.nblocks)
            if eliminated:
                series.eliminated_requests.inc()
            if deduped_blocks:
                series.deduped_blocks.inc(deduped_blocks)
            if cross_volume_blocks:
                series.cross_volume_deduped_blocks.inc(cross_volume_blocks)
            if cache_hit_blocks:
                series.cache_hit_blocks.inc(cache_hit_blocks)
        if self._timeline is not None:
            self._timeline.note_request(
                completion,
                is_read=request.op is OpType.READ,
                nblocks=request.nblocks,
                response=response,
                volume_id=(request.volume_id if self._volumes is not None else -1),
                eliminated=eliminated,
                deduped_blocks=deduped_blocks,
                cache_hit_blocks=cache_hit_blocks,
                cross_volume_blocks=cross_volume_blocks,
            )

    def record_columns(self, rows: Completions) -> None:
        """Fold a batch of completions in: the same state as
        :meth:`record` on every row in row order.

        Histograms take their samples through
        :func:`~repro.obs.registry.observe_grouped`, counters their
        per-series sums, and an attached timeline its
        :meth:`~repro.obs.timeline.TimelineSampler.note_requests`.
        Lazily created volume series appear in first-seen order.  A
        completion before its arrival raises before anything changes.
        A subclass that overrides :meth:`record` must override this
        too: both replay loops record through it.
        """
        if not len(rows.req_id):
            return
        arrival = rows.arrival
        completion = rows.completion
        response = _responses(rows)
        is_read = rows.is_read
        write = (~is_read).astype(np.int64)
        nblocks = rows.nblocks
        read_blocks = np.where(is_read, nblocks, 0)
        write_blocks = nblocks - read_blocks
        # Histogram 0/1 is the run's read/write series, 2 + 2v + op
        # volume slot v's.
        hists = [self._read_hist, self._write_hist]
        groups = write
        samples = response
        if self._volumes is not None:
            distinct, in_order, slot = first_seen(rows.volume_id)
            for vid in in_order:
                self._volume_series(vid)
            series = [self._volumes[vid] for vid in distinct]
            for s in series:
                hists.append(s.read_hist)
                hists.append(s.write_hist)
            groups = np.concatenate((groups, 2 + 2 * slot + write))
            samples = np.concatenate((response, response))
        observe_grouped(hists, groups, samples)
        self._read_blocks.inc(int(read_blocks.sum()))
        self._write_blocks.inc(int(write_blocks.sum()))
        self._elim_requests.inc(int(np.count_nonzero(rows.eliminated)))
        self._elim_blocks.inc(int(rows.deduped_blocks.sum()))
        self._cache_hit_blocks.inc(int(rows.cache_hit_blocks.sum()))
        first = float(arrival.min())
        if self.first_arrival is None or first < self.first_arrival:
            self.first_arrival = first
        last = float(completion.max())
        if last > self.last_completion:
            self.last_completion = last
        if self._volumes is not None:
            nv = len(series)
            for s, rb, wb, el, dd, cv, ch in zip(
                series,
                group_sums(slot, nv, read_blocks),
                group_sums(slot, nv, write_blocks),
                group_sums(slot, nv, rows.eliminated),
                group_sums(slot, nv, rows.deduped_blocks),
                group_sums(slot, nv, rows.cross_volume_blocks),
                group_sums(slot, nv, rows.cache_hit_blocks),
            ):
                s.read_blocks.inc(rb)
                s.write_blocks.inc(wb)
                s.eliminated_requests.inc(el)
                s.deduped_blocks.inc(dd)
                s.cross_volume_deduped_blocks.inc(cv)
                s.cache_hit_blocks.inc(ch)
        if self._timeline is not None:
            self._timeline.note_requests(
                completion,
                is_read=is_read,
                nblocks=nblocks,
                response=response,
                volume_id=(rows.volume_id if self._volumes is not None else None),
                eliminated=rows.eliminated,
                deduped_blocks=rows.deduped_blocks,
                cache_hit_blocks=rows.cache_hit_blocks,
                cross_volume_blocks=rows.cross_volume_blocks,
            )

    # ------------------------------------------------------------------
    # per-node tracking (cluster replays)
    # ------------------------------------------------------------------

    def track_nodes(self) -> None:
        """Enable per-node breakdowns (multi-node cluster replays)."""
        if self._nodes is None:
            self._nodes = {}

    @property
    def tracks_nodes(self) -> bool:
        return self._nodes is not None

    def _node_series(self, node_id: int) -> _NodeSeries:
        assert self._nodes is not None
        series = self._nodes.get(node_id)
        if series is None:
            series = _NodeSeries(self.registry, node_id)
            self._nodes[node_id] = series
        return series

    def record_node(
        self,
        request: IORequest,
        node_id: int,
        arrival: float,
        completion: float,
        eliminated: bool = False,
        cache_hit_blocks: int = 0,
        deduped_blocks: int = 0,
        net_delay: float = 0.0,
        remote_lookups: int = 0,
        remote_duplicate_blocks: int = 0,
    ) -> None:
        """Record one completed request against its owner node.

        The scalar form of :meth:`record_node_columns`, which the
        cluster replay folds through *in addition to*
        :meth:`record_columns` (the global series stay the single source
        of cluster totals; per-node series are the breakdown).
        ``net_delay`` is the response-time contribution of remote
        fingerprint lookups.
        """
        if self._nodes is None:
            raise SimulationError("record_node without track_nodes()")
        if completion < arrival:
            raise SimulationError(
                f"request {request.req_id} completed at {completion} "
                f"before its arrival at {arrival}"
            )
        series = self._node_series(node_id)
        response = completion - arrival
        if request.op is OpType.READ:
            series.read_hist.observe(response)
            series.read_blocks.inc(request.nblocks)
        else:
            series.write_hist.observe(response)
            series.write_blocks.inc(request.nblocks)
        if eliminated:
            series.eliminated_requests.inc()
        if deduped_blocks:
            series.deduped_blocks.inc(deduped_blocks)
        if cache_hit_blocks:
            series.cache_hit_blocks.inc(cache_hit_blocks)
        if net_delay > 0.0:
            series.net_delay_hist.observe(net_delay)
        if remote_lookups:
            series.remote_lookups.inc(remote_lookups)
        if remote_duplicate_blocks:
            series.remote_duplicate_blocks.inc(remote_duplicate_blocks)
        if self._timeline is not None:
            self._timeline.note_node_request(
                completion,
                node_id=node_id,
                is_read=request.op is OpType.READ,
                nblocks=request.nblocks,
                response=response,
                eliminated=eliminated,
                deduped_blocks=deduped_blocks,
                cache_hit_blocks=cache_hit_blocks,
                net_delay=net_delay,
                remote_lookups=remote_lookups,
            )

    def record_node_columns(
        self,
        rows: Completions,
        node_id: np.ndarray,
        net_delay: np.ndarray,
        remote_lookups: np.ndarray,
        remote_duplicate_blocks: np.ndarray,
    ) -> None:
        """Fold a batch of node completions in: the same state as
        :meth:`record_node` on every row in row order, row ``k`` owned
        by node ``node_id[k]``.  Node series appear in first-seen order;
        only positive net delays reach the ``net.delay`` histogram."""
        if self._nodes is None:
            raise SimulationError("record_node_columns without track_nodes()")
        if not len(rows.req_id):
            return
        response = _responses(rows)
        is_read = rows.is_read
        distinct, in_order, slot = first_seen(node_id)
        for nid in in_order:
            self._node_series(nid)
        series = [self._nodes[nid] for nid in distinct]
        ns = len(series)
        # Histogram 2s + op is node slot s's read/write series, 2ns + s
        # its net-delay series.
        hists = [h for s in series for h in (s.read_hist, s.write_hist)]
        hists.extend(s.net_delay_hist for s in series)
        delayed = net_delay > 0.0
        observe_grouped(
            hists,
            np.concatenate((2 * slot + ~is_read, 2 * ns + slot[delayed])),
            np.concatenate((response, net_delay[delayed])),
        )
        read_blocks = np.where(is_read, rows.nblocks, 0)
        columns = (
            read_blocks, rows.nblocks - read_blocks, rows.eliminated, rows.deduped_blocks,
            rows.cache_hit_blocks, remote_lookups, remote_duplicate_blocks,
        )
        sums = zip(*(group_sums(slot, ns, col) for col in columns))
        for s, row in zip(series, sums):
            counters = (
                s.read_blocks, s.write_blocks, s.eliminated_requests, s.deduped_blocks,
                s.cache_hit_blocks, s.remote_lookups, s.remote_duplicate_blocks,
            )
            for counter, n in zip(counters, row):
                counter.inc(n)
        if self._timeline is not None:
            note = self._timeline.note_node_request
            for t, nid, read, nb, resp, elim, dedup, hit, delay, lookups in zip(
                rows.completion.tolist(), node_id.tolist(), is_read.tolist(),
                rows.nblocks.tolist(), response.tolist(), rows.eliminated.tolist(),
                rows.deduped_blocks.tolist(), rows.cache_hit_blocks.tolist(),
                net_delay.tolist(), remote_lookups.tolist(),
            ):
                note(
                    t, node_id=nid, is_read=read, nblocks=nb, response=resp,
                    eliminated=elim, deduped_blocks=dedup, cache_hit_blocks=hit,
                    net_delay=delay, remote_lookups=lookups,
                )

    def node_ids(self) -> list:
        """Node ids with recorded traffic (empty unless tracking)."""
        if self._nodes is None:
            return []
        return sorted(self._nodes)

    def _require_node(self, node_id: int) -> _NodeSeries:
        if self._nodes is None or node_id not in self._nodes:
            raise SimulationError(f"no per-node metrics for node {node_id}")
        return self._nodes[node_id]

    def node_as_dict(self, node_id: int) -> Dict[str, float]:
        """Flat per-node summary (one row of the run report)."""
        series = self._require_node(node_id)
        read = ResponseSummary.of_histogram(
            series.read_hist, series.read_blocks.value
        )
        write = ResponseSummary.of_histogram(
            series.write_hist, series.write_blocks.value
        )
        merged = series.read_hist.merge(series.write_hist)
        overall = ResponseSummary.of_histogram(
            merged, series.read_blocks.value + series.write_blocks.value
        )
        return {
            "node_id": node_id,
            "requests": overall.count,
            "mean_response": overall.mean,
            "p95_response": overall.p95,
            "p99_response": overall.p99,
            "read_requests": read.count,
            "read_mean_response": read.mean,
            "read_blocks": series.read_blocks.value,
            "write_requests": write.count,
            "write_mean_response": write.mean,
            "write_blocks": series.write_blocks.value,
            "writes_eliminated_requests": series.eliminated_requests.value,
            "writes_eliminated_blocks": series.deduped_blocks.value,
            "read_cache_hit_blocks": series.cache_hit_blocks.value,
            "net_delay_requests": series.net_delay_hist.count,
            "net_delay_mean": series.net_delay_hist.mean,
            "net_delay_p99": series.net_delay_hist.p99,
            "remote_lookups": series.remote_lookups.value,
            "remote_duplicate_blocks": series.remote_duplicate_blocks.value,
        }

    def nodes_as_dict(self) -> list:
        """Per-node summaries for every tracked node, id-ordered."""
        return [self.node_as_dict(nid) for nid in self.node_ids()]

    # ------------------------------------------------------------------

    @property
    def requests(self) -> int:
        return self._read_hist.count + self._write_hist.count

    @property
    def writes_eliminated_requests(self) -> int:
        """Write *requests* fully removed (the Fig. 11 numerator)."""
        return self._elim_requests.value

    @property
    def writes_eliminated_blocks(self) -> int:
        """Individual write *blocks* eliminated by deduplication."""
        return self._elim_blocks.value

    @property
    def writes_eliminated(self) -> int:
        """Back-compat alias for :attr:`writes_eliminated_requests`."""
        return self._elim_requests.value

    @property
    def read_cache_hit_blocks(self) -> int:
        return self._cache_hit_blocks.value

    def read_summary(self) -> ResponseSummary:
        return ResponseSummary.of_histogram(self._read_hist, self._read_blocks.value)

    def write_summary(self) -> ResponseSummary:
        return ResponseSummary.of_histogram(self._write_hist, self._write_blocks.value)

    def overall_summary(self) -> ResponseSummary:
        merged = self._read_hist.merge(self._write_hist)
        return ResponseSummary.of_histogram(
            merged, self._read_blocks.value + self._write_blocks.value
        )

    def histograms(self) -> Dict[str, Histogram]:
        """Named histograms, including the derived overall series."""
        return {
            "overall": self._read_hist.merge(self._write_hist),
            "read": self._read_hist,
            "write": self._write_hist,
        }

    # ------------------------------------------------------------------
    # per-volume summaries
    # ------------------------------------------------------------------

    def volume_ids(self) -> list:
        """Volume ids with recorded traffic (empty unless tracking)."""
        if self._volumes is None:
            return []
        return sorted(self._volumes)

    def volume_read_summary(self, volume_id: int) -> ResponseSummary:
        series = self._require_volume(volume_id)
        return ResponseSummary.of_histogram(series.read_hist, series.read_blocks.value)

    def volume_write_summary(self, volume_id: int) -> ResponseSummary:
        series = self._require_volume(volume_id)
        return ResponseSummary.of_histogram(series.write_hist, series.write_blocks.value)

    def volume_overall_summary(self, volume_id: int) -> ResponseSummary:
        series = self._require_volume(volume_id)
        merged = series.read_hist.merge(series.write_hist)
        return ResponseSummary.of_histogram(
            merged, series.read_blocks.value + series.write_blocks.value
        )

    def _require_volume(self, volume_id: int) -> _VolumeSeries:
        if self._volumes is None or volume_id not in self._volumes:
            raise SimulationError(f"no per-volume metrics for volume {volume_id}")
        return self._volumes[volume_id]

    def volume_as_dict(self, volume_id: int) -> Dict[str, float]:
        """Flat per-volume summary (one row of the run report)."""
        series = self._require_volume(volume_id)
        overall = self.volume_overall_summary(volume_id)
        read = self.volume_read_summary(volume_id)
        write = self.volume_write_summary(volume_id)
        deduped = series.deduped_blocks.value
        cross = series.cross_volume_deduped_blocks.value
        return {
            "volume_id": volume_id,
            "requests": overall.count,
            "mean_response": overall.mean,
            "p95_response": overall.p95,
            "read_requests": read.count,
            "read_mean_response": read.mean,
            "write_requests": write.count,
            "write_mean_response": write.mean,
            "writes_eliminated_requests": series.eliminated_requests.value,
            "writes_eliminated_blocks": deduped,
            "cross_volume_deduped_blocks": cross,
            "intra_volume_deduped_blocks": deduped - cross,
            "read_cache_hit_blocks": series.cache_hit_blocks.value,
        }

    def as_dict(self) -> Dict[str, float]:
        """Flat summary used by benches, reports and EXPERIMENTS.md."""
        overall = self.overall_summary()
        read = self.read_summary()
        write = self.write_summary()
        return {
            "requests": overall.count,
            "mean_response": overall.mean,
            "median_response": overall.median,
            "p95_response": overall.p95,
            "p99_response": overall.p99,
            "p999_response": overall.p999,
            "read_requests": read.count,
            "read_mean_response": read.mean,
            "write_requests": write.count,
            "write_mean_response": write.mean,
            "writes_eliminated": self.writes_eliminated_requests,
            "writes_eliminated_requests": self.writes_eliminated_requests,
            "writes_eliminated_blocks": self.writes_eliminated_blocks,
            "read_cache_hit_blocks": self.read_cache_hit_blocks,
            "makespan": (
                self.last_completion - self.first_arrival
                if self.first_arrival is not None
                else 0.0
            ),
        }
