"""Named counters, gauges and fixed-bucket latency histograms.

The registry is the *aggregating* half of the observability layer
(:mod:`repro.obs.trace` is the per-event half): hot paths bump
counters and observe latencies in O(1)/O(log buckets) without storing
samples, and the run report serialises the whole registry at the end.

The histogram uses log-spaced fixed buckets (HdrHistogram-style):
percentiles are answered by walking the cumulative counts and
linearly interpolating inside the target bucket, so p50/p95/p99/p999
cost no per-sample memory and two histograms merge by adding their
bucket counts -- which is what lets ``repro stats a.json b.json``
diff reports and lets sharded replays aggregate.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_latency_bounds",
    "first_seen",
    "group_sums",
    "observe_grouped",
]


def default_latency_bounds(
    lo: float = 1e-6, hi: float = 1e3, per_decade: int = 40
) -> List[float]:
    """Log-spaced bucket boundaries covering ``[lo, hi]`` seconds.

    ``per_decade`` controls resolution: 40/decade keeps interpolated
    percentiles within ~3% of the exact value for smooth
    distributions while costing only a few hundred integer slots.
    """
    if lo <= 0 or hi <= lo:
        raise ConfigError(f"need 0 < lo < hi, got lo={lo} hi={hi}")
    if per_decade < 1:
        raise ConfigError("per_decade must be >= 1")
    decades = math.log10(hi / lo)
    n = int(round(decades * per_decade))
    ratio = (hi / lo) ** (1.0 / n)
    bounds = [lo * ratio**i for i in range(n)]
    bounds.append(hi)
    return bounds


class Counter:
    """Monotonic named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ConfigError(f"counter {self.name}: negative increment {n}")
        self.value += n


class Gauge:
    """Point-in-time named value, tracking its high-water mark."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max_value = 0.0

    def set(self, v: float) -> None:
        self.value = v
        if v > self.max_value:
            self.max_value = v


class Histogram:
    """Fixed-bucket latency histogram with interpolated percentiles.

    ``bounds`` are the upper edges of the finite buckets; sample ``v``
    lands in the first bucket whose upper edge is ``>= v``.  Values
    at or below the smallest edge share the underflow bucket (lower
    edge 0); values above the largest edge land in the overflow
    bucket, whose percentiles report the exact observed maximum.
    """

    __slots__ = ("name", "bounds", "counts", "overflow", "count", "total", "vmin", "vmax")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.bounds: List[float] = (
            list(bounds) if bounds is not None else default_latency_bounds()
        )
        if not self.bounds:
            raise ConfigError(f"histogram {name}: empty bucket boundaries")
        if any(b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise ConfigError(f"histogram {name}: boundaries must strictly increase")
        if self.bounds[0] <= 0:
            raise ConfigError(f"histogram {name}: boundaries must be positive")
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    def fresh(self, name: str) -> "Histogram":
        """An empty histogram named ``name`` on this one's bounds, shared
        rather than copied and re-validated (the timeline makes two per
        window scope)."""
        out = Histogram.__new__(Histogram)
        out.name = name
        out.bounds = self.bounds
        out.counts = [0] * len(self.bounds)
        out.overflow = 0
        out.count = 0
        out.total = 0.0
        out.vmin = math.inf
        out.vmax = -math.inf
        return out

    # ------------------------------------------------------------------

    def observe(self, v: float) -> None:
        """Record one sample (negative samples are a caller bug)."""
        if v < 0:
            raise ConfigError(f"histogram {self.name}: negative sample {v}")
        self.count += 1
        self.total += v
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v
        i = bisect.bisect_left(self.bounds, v)
        if i == len(self.bounds):
            self.overflow += 1
        else:
            self.counts[i] += 1

    # ------------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self.vmin if self.count else 0.0

    @property
    def max(self) -> float:
        return self.vmax if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Interpolated ``q``-th percentile (``0 <= q <= 100``).

        Walks the cumulative counts to the target rank and linearly
        interpolates within the containing bucket; the result is
        clamped to the observed ``[min, max]`` so tiny buckets can
        never report values outside the data.
        """
        if not (0.0 <= q <= 100.0):
            raise ConfigError(f"percentile {q} outside [0, 100]")
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        cum = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if cum + c >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                frac = (rank - cum) / c
                return self._clamp(lo + (hi - lo) * frac)
            cum += c
        # Target rank lives in the overflow bucket.
        return self._clamp(self.vmax)

    def _clamp(self, v: float) -> float:
        return max(self.vmin, min(self.vmax, v))

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)

    # ------------------------------------------------------------------

    def merge(self, other: "Histogram") -> "Histogram":
        """Pointwise sum with ``other`` (must share boundaries)."""
        if self.bounds != other.bounds:
            raise ConfigError(
                f"cannot merge histograms {self.name!r} and {other.name!r}: "
                "bucket boundaries differ"
            )
        out = Histogram(self.name, self.bounds)
        out.counts = [a + b for a, b in zip(self.counts, other.counts)]
        out.overflow = self.overflow + other.overflow
        out.count = self.count + other.count
        out.total = self.total + other.total
        out.vmin = min(self.vmin, other.vmin)
        out.vmax = max(self.vmax, other.vmax)
        return out

    def nonzero_buckets(self) -> List[Tuple[float, float, int]]:
        """``(lower, upper, count)`` for every occupied bucket."""
        out: List[Tuple[float, float, int]] = []
        for i, c in enumerate(self.counts):
            if c:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                out.append((lo, self.bounds[i], c))
        if self.overflow:
            out.append((self.bounds[-1], math.inf, self.overflow))
        return out

    def as_dict(self, include_buckets: bool = False) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "p999": self.p999,
        }
        if include_buckets:
            out["buckets"] = [
                [lo, ("inf" if math.isinf(hi) else hi), c]
                for lo, hi, c in self.nonzero_buckets()
            ]
        return out


def observe_grouped(
    hists: Sequence[Histogram], groups: np.ndarray, values: np.ndarray
) -> None:
    """Observe ``values[k]`` into ``hists[groups[k]]`` for every ``k``:
    the same state as ``hists[groups[k]].observe(values[k])`` in
    record order, for one whole batch of samples.

    Bucket counts come from one ``searchsorted`` and one ``bincount``
    over (histogram, bucket) keys, and min/max do not depend on order.
    Each histogram's float ``total`` is added sample by sample in
    record order (a pairwise ``sum`` would round differently).  Every
    histogram must share the first one's bucket bounds.  A negative
    sample raises before any histogram changes.
    """
    n = len(values)
    if not n:
        return
    if values.min() < 0:
        k = int(np.flatnonzero(values < 0)[0])
        raise ConfigError(
            f"histogram {hists[int(groups[k])].name}: negative sample {values[k]}"
        )
    bounds = hists[0].bounds
    nbuckets = len(bounds) + 1  # the last one is the overflow bucket
    buckets = np.searchsorted(np.asarray(bounds), values, side="left")
    keys = groups * nbuckets + buckets
    tally = np.bincount(keys, minlength=len(hists) * nbuckets)
    occupied = np.flatnonzero(tally)
    for key, c in zip(occupied.tolist(), tally[occupied].tolist()):
        g, b = divmod(key, nbuckets)
        if b == nbuckets - 1:
            hists[g].overflow += c
        else:
            hists[g].counts[b] += c
    # One contiguous run of samples per histogram, record order kept.
    order = np.argsort(groups, kind="stable")
    ordered = values[order]
    sizes = np.bincount(groups, minlength=len(hists))
    present = np.flatnonzero(sizes)
    starts = (np.cumsum(sizes) - sizes)[present]
    lows = np.minimum.reduceat(ordered, starts).tolist()
    highs = np.maximum.reduceat(ordered, starts).tolist()
    samples = ordered.tolist()
    for g, a, size, lo, hi in zip(
        present.tolist(), starts.tolist(), sizes[present].tolist(), lows, highs
    ):
        h = hists[g]
        total = h.total
        for v in samples[a : a + size]:
            total += v
        h.total = total
        h.count += size
        if lo < h.vmin:
            h.vmin = lo
        if hi > h.vmax:
            h.vmax = hi


def first_seen(keys: np.ndarray) -> Tuple[List[int], List[int], np.ndarray]:
    """``(distinct, in_order, slot)``: the distinct ``keys`` sorted,
    the same keys in order of first appearance, and each row's index
    into ``distinct``.  Folds create lazily made state in first-seen
    order, as a row-by-row loop would."""
    distinct, first, slot = np.unique(keys, return_index=True, return_inverse=True)
    in_order = distinct[np.argsort(first)].tolist()
    return distinct.tolist(), in_order, slot.reshape(-1)


def group_sums(slot: np.ndarray, nslots: int, values: np.ndarray) -> List[int]:
    """Per-slot sums of the integer column ``values`` (summed as
    float64, so exact while every sum stays below 2**53)."""
    return np.bincount(slot, weights=values, minlength=nslots).astype(np.int64).tolist()


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    One registry accompanies one replay; schemes, caches, the engine
    and the collector all write into it through their attached
    observer, and the run report serialises it via :meth:`as_dict`.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create -------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, bounds)
        return h

    # -- convenience ---------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set(self, name: str, v: float) -> None:
        self.gauge(name).set(v)

    def observe(self, name: str, v: float) -> None:
        self.histogram(name).observe(v)

    # -- export --------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {k: c.value for k, c in sorted(self._counters.items())}

    def gauges(self) -> Dict[str, Dict[str, float]]:
        return {
            k: {"value": g.value, "max": g.max_value}
            for k, g in sorted(self._gauges.items())
        }

    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def as_dict(self, include_buckets: bool = False) -> Dict[str, Any]:
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": {
                k: h.as_dict(include_buckets=include_buckets)
                for k, h in sorted(self._histograms.items())
            },
        }

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Combine two registries (counters add, histograms merge,
        gauges keep the pointwise max of high-water marks)."""
        out = MetricsRegistry()
        # ``other`` is another MetricsRegistry: same-class access to the
        # backing stores is the merge's whole point.
        for name in set(self._counters) | set(other._counters):  # pod: ignore[POD007]
            a = self._counters.get(name)
            b = other._counters.get(name)  # pod: ignore[POD007]
            out.counter(name).value = (a.value if a else 0) + (b.value if b else 0)
        for name in set(self._gauges) | set(other._gauges):  # pod: ignore[POD007]
            g = out.gauge(name)
            for src in (self._gauges.get(name), other._gauges.get(name)):  # pod: ignore[POD007]
                if src is not None:
                    g.set(src.value)
                    if src.max_value > g.max_value:
                        g.max_value = src.max_value
        for name in set(self._histograms) | set(other._histograms):  # pod: ignore[POD007]
            a = self._histograms.get(name)
            b = other._histograms.get(name)  # pod: ignore[POD007]
            if a is not None and b is not None:
                out._histograms[name] = a.merge(b)  # pod: ignore[POD007]
            else:
                src = a if a is not None else b
                assert src is not None
                out._histograms[name] = src.merge(  # pod: ignore[POD007]
                    Histogram(name, src.bounds)
                )
        return out
