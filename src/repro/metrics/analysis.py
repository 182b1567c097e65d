"""Deeper result analysis: latency breakdowns and time series.

The paper's discussion reasons about *why* schemes behave as they do
(queue relief, read amplification, small-write elimination).  These
helpers extract the supporting evidence from a replay:

* :func:`latency_by_size` -- mean response time per request-size
  bucket (shows the small-write effect directly);
* :func:`latency_timeseries` -- windowed mean response over simulated
  time (shows burst-driven queueing and iCache's phase adaptation);
* :func:`slowdown_profile` -- per-request response divided by its
  no-queue service estimate, summarised (a queue-pressure measure).

They consume a :class:`DetailedCollector`, a drop-in extension of
:class:`~repro.metrics.collector.MetricsCollector` that additionally
keeps per-request records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.metrics.collector import Completions, MetricsCollector
from repro.sim.request import IORequest, OpType
from repro.traces.stats import SIZE_BUCKETS_KB, _bucket_kb


@dataclass(frozen=True)
class RequestSample:
    """One completed request, fully described."""

    req_id: int
    op: OpType
    nblocks: int
    arrival: float
    completion: float
    #: Issuing volume (0 on single-volume replays).
    volume_id: int = 0

    @property
    def response(self) -> float:
        return self.completion - self.arrival


class DetailedCollector(MetricsCollector):
    """A MetricsCollector that also retains per-request samples."""

    def __init__(self) -> None:
        super().__init__()
        self.samples: List[RequestSample] = []

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
        super().record(
            request,
            arrival,
            completion,
            eliminated,
            cache_hit_blocks,
            deduped_blocks,
            cross_volume_blocks,
        )
        self.samples.append(
            RequestSample(
                req_id=request.req_id,
                op=request.op,
                nblocks=request.nblocks,
                arrival=arrival,
                completion=completion,
                volume_id=request.volume_id,
            )
        )

    def record_columns(self, rows: Completions) -> None:
        super().record_columns(rows)
        self.samples.extend(
            RequestSample(
                req_id=req_id,
                op=OpType.READ if is_read else OpType.WRITE,
                nblocks=nblocks,
                arrival=arrival,
                completion=completion,
                volume_id=volume_id,
            )
            for req_id, is_read, nblocks, arrival, completion, volume_id in zip(
                rows.req_id.tolist(),
                rows.is_read.tolist(),
                rows.nblocks.tolist(),
                rows.arrival.tolist(),
                rows.completion.tolist(),
                rows.volume_id.tolist(),
            )
        )


def latency_by_size(
    collector: DetailedCollector, op: Optional[OpType] = None
) -> Dict[int, Tuple[int, float]]:
    """Mean response per Fig.-1 size bucket: ``{kb: (count, mean_s)}``.

    Buckets with no samples are omitted.
    """
    grouped: Dict[int, List[float]] = {}
    for s in collector.samples:
        if op is not None and s.op is not op:
            continue
        grouped.setdefault(_bucket_kb(s.nblocks), []).append(s.response)
    return {
        kb: (len(vals), float(np.mean(vals)))
        for kb, vals in sorted(grouped.items())
    }


def latency_timeseries(
    collector: DetailedCollector, window: float = 5.0
) -> List[Tuple[float, int, float]]:
    """Windowed response means: ``(window_start, count, mean_s)`` rows."""
    if window <= 0:
        raise SimulationError("window must be positive")
    if not collector.samples:
        return []
    rows: List[Tuple[float, int, float]] = []
    ordered = sorted(collector.samples, key=lambda s: s.arrival)
    start = ordered[0].arrival - (ordered[0].arrival % window)
    bucket: List[float] = []
    for s in ordered:
        while s.arrival >= start + window:
            if bucket:
                rows.append((start, len(bucket), float(np.mean(bucket))))
                bucket = []
            start += window
        bucket.append(s.response)
    if bucket:
        rows.append((start, len(bucket), float(np.mean(bucket))))
    return rows


@dataclass(frozen=True)
class SlowdownSummary:
    """Queue-pressure summary: response / no-queue service estimate."""

    mean: float
    median: float
    p95: float


def slowdown_profile(
    collector: DetailedCollector, service_estimate: float = 10e-3
) -> SlowdownSummary:
    """Summarise per-request slowdowns against a flat service estimate.

    ``service_estimate`` stands in for the no-queue response of an
    average request (one mechanical access).  Values near 1 mean the
    system ran unqueued; large values mean deep queues.
    """
    if service_estimate <= 0:
        raise SimulationError("service estimate must be positive")
    slowdowns = np.array(
        [max(s.response, 0.0) / service_estimate for s in collector.samples]
    )
    if slowdowns.size == 0:
        return SlowdownSummary(0.0, 0.0, 0.0)
    return SlowdownSummary(
        mean=float(slowdowns.mean()),
        median=float(np.median(slowdowns)),
        p95=float(np.percentile(slowdowns, 95)),
    )
