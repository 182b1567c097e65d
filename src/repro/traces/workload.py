"""Workload primitives used by the synthetic trace generators.

Three building blocks that the workload studies cited by the paper
agree on for primary storage:

* **skewed popularity** -- a bounded Zipf distribution over content
  and over recently written segments (temporal locality);
* **burstiness** -- "primary storage workloads exhibit obvious I/O
  burstiness" (Section I) and "read-intensive periods are interleaved
  with write-intensive periods" (Section II-B): a two-level arrival
  process (bursts of closely spaced requests separated by longer
  gaps) modulated by alternating read/write phases;
* **size mixes dominated by small requests** -- "30% to 62% of I/O
  requests seen at the block level are 4KB" (Section II-A).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import TraceError


def choice_cdf(probs: Sequence[float]) -> List[float]:
    """The CDF ``Generator.choice(a, p=probs)`` searches, as a list.

    ``choice`` with explicit probabilities computes ``cdf = p.cumsum();
    cdf /= cdf[-1]``, draws one ``random()`` and returns
    ``cdf.searchsorted(u, side="right")``.  Built once, the same
    float64 CDF and ``bisect_right(cdf, rng.random())`` make the same
    comparison on the same double: the same draw from the same
    generator state, without ``choice``'s per-call argument checks and
    array set-up (about 17 us a call).  Dividing by
    the last entry also makes a table whose sum is off 1 by more than
    ``choice``'s tolerance draw in proportion instead of raising.
    """
    cdf = np.asarray(probs, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def check_probs(probs: Sequence[float], what: str) -> None:
    """Reject a probability table that is not a distribution."""
    if any(not (p >= 0.0) for p in probs):
        raise TraceError(f"{what} probabilities must be non-negative, got {tuple(probs)}")
    total = sum(probs)
    if not (0.999 <= total <= 1.001):
        raise TraceError(f"{what} probabilities sum to {total}, expected 1.0")


class ZipfChooser:
    """Bounded Zipf(s) sampler over ranks ``0..n-1`` (0 most popular).

    A draw is one ``rng.random()`` and a binary search of the CDF with
    ``side="right"`` -- the draw ``choice`` with these probabilities
    would make.  ``n`` may grow (e.g. as new segments are written) via
    :meth:`resize`.  The cumulative weights ``cumsum(arange(1, m + 1)
    ** -s)`` are kept for a capacity ``m >= n`` that doubles on growth;
    ``cumsum`` accumulates in order, so their first ``n`` entries are
    bit-equal to the cumulative weights of an ``n``-rank table, and the
    CDF ``prefix[:n] / prefix[n - 1]`` is the one a fresh table gives
    without raising every rank to the power again on each growth.
    """

    def __init__(self, n: int, s: float = 1.0) -> None:
        if n < 1:
            raise TraceError("ZipfChooser needs n >= 1")
        if s < 0:
            raise TraceError("Zipf exponent must be non-negative")
        self.s = s
        self._n = 0
        self._prefix: np.ndarray = np.empty(0)
        self._cdf: np.ndarray = np.empty(0)
        self.resize(n)

    @property
    def n(self) -> int:
        return self._n

    @property
    def cdf(self) -> np.ndarray:
        """The ``n``-rank CDF that draws search (read-only use)."""
        return self._cdf

    def resize(self, n: int) -> None:
        if n < 1:
            raise TraceError("ZipfChooser needs n >= 1")
        if n == self._n:
            return
        if n > len(self._prefix):
            capacity = max(n, 2 * len(self._prefix))
            ranks = np.arange(1, capacity + 1, dtype=np.float64)
            self._prefix = np.cumsum(ranks ** (-self.s))
        self._cdf = self._prefix[:n] / self._prefix[n - 1]
        self._n = n

    def draw(self, rng: np.random.Generator) -> int:
        return int(self._cdf.searchsorted(rng.random(), "right"))

    def draw_many(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return self._cdf.searchsorted(rng.random(k), "right")


@dataclass(frozen=True)
class SizeDistribution:
    """Discrete request-size distribution in 4 KB blocks."""

    sizes: Tuple[int, ...]
    probs: Tuple[float, ...]
    _cdf: List[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.probs) or not self.sizes:
            raise TraceError("sizes and probs must be equal-length, non-empty")
        if any(s < 1 for s in self.sizes):
            raise TraceError("sizes must be >= 1 block")
        check_probs(self.probs, "size")
        object.__setattr__(self, "_cdf", choice_cdf(self.probs))

    @staticmethod
    def of(table: Dict[int, float]) -> "SizeDistribution":
        sizes = tuple(sorted(table))
        return SizeDistribution(sizes=sizes, probs=tuple(table[s] for s in sizes))

    @property
    def mean_blocks(self) -> float:
        return float(sum(s * p for s, p in zip(self.sizes, self.probs)))

    @property
    def mean_kb(self) -> float:
        return self.mean_blocks * 4.0

    def draw(self, rng: np.random.Generator) -> int:
        return self.sizes[bisect_right(self._cdf, rng.random())]


@dataclass(frozen=True)
class BurstModel:
    """Two-level arrival process.

    Requests arrive in bursts: ``burst_size`` is geometric with the
    given mean; within a burst the inter-arrival gap is exponential
    with mean ``intra_gap``; bursts are separated by exponential gaps
    with mean ``inter_gap``.  This reproduces the queue build-up that
    makes write elimination help *read* latency (Section IV-B: the
    reduced write traffic "greatly shortens the length of the disk I/O
    queue").
    """

    mean_burst_size: float = 10.0
    intra_gap: float = 0.3e-3
    inter_gap: float = 250e-3

    def __post_init__(self) -> None:
        if self.mean_burst_size < 1:
            raise TraceError("mean burst size must be >= 1")
        if self.intra_gap < 0 or self.inter_gap < 0:
            raise TraceError("gaps must be non-negative")


class ArrivalProcess:
    """Stateful arrival-time generator for one trace."""

    def __init__(self, model: BurstModel, rng: np.random.Generator) -> None:
        self.model = model
        self.rng = rng
        self.now = 0.0
        self._left_in_burst = 0

    def next_time(self) -> float:
        """Arrival time of the next request."""
        if self._left_in_burst <= 0:
            self._left_in_burst = 1 + self.rng.geometric(
                1.0 / self.model.mean_burst_size
            )
            self.now += self.rng.exponential(self.model.inter_gap)
        else:
            self.now += self.rng.exponential(max(self.model.intra_gap, 1e-9))
        self._left_in_burst -= 1
        return self.now


@dataclass(frozen=True)
class PhaseModel:
    """Alternating read-intensive / write-intensive phases.

    ``write_ratio`` is the long-run write fraction; during a write
    phase requests are writes with probability ``write_phase_bias``
    and during a read phase with the complementary probability needed
    to keep the long-run ratio.  Phase lengths are geometric in
    requests.
    """

    write_ratio: float
    mean_phase_len: int = 400
    write_phase_bias: float = 0.95

    def __post_init__(self) -> None:
        if not (0.0 < self.write_ratio < 1.0):
            raise TraceError("write ratio must be in (0, 1)")
        if self.mean_phase_len < 1:
            raise TraceError("phase length must be >= 1")
        if not (0.5 <= self.write_phase_bias <= 1.0):
            raise TraceError("write-phase bias must be in [0.5, 1]")

    def phase_mix(self) -> Tuple[float, float]:
        """(fraction of write phases, write prob in read phases).

        Solving ``f*bias + (1-f)*q = ratio`` with ``f`` chosen so that
        ``q`` stays within [0.02, bias].
        """
        f = min(0.95, self.write_ratio / self.write_phase_bias)
        q = (self.write_ratio - f * self.write_phase_bias) / max(1e-9, 1.0 - f)
        if q < 0.02:
            # Shrink the write-phase share until read phases keep a
            # trickle of writes.
            q = 0.02
            f = (self.write_ratio - q) / (self.write_phase_bias - q)
        return f, q


class PhaseProcess:
    """Stateful phase tracker: is the next request a write?

    Phases strictly alternate write-intensive / read-intensive; the
    long-run write ratio is kept by making write phases longer or
    shorter (length share = the ``f`` of :meth:`PhaseModel.phase_mix`)
    rather than by randomising the phase *type*, which would give the
    ratio a large variance over a one-day trace.
    """

    def __init__(self, model: PhaseModel, rng: np.random.Generator) -> None:
        self.model = model
        self.rng = rng
        self._f, self._q = model.phase_mix()
        self._left = 0
        self._in_write_phase = False  # flipped before the first draw
        self.phases_seen = 0

    @property
    def in_write_phase(self) -> bool:
        return self._in_write_phase

    def next_is_write(self) -> bool:
        if self._left <= 0:
            self._in_write_phase = not self._in_write_phase
            share = self._f if self._in_write_phase else 1.0 - self._f
            mean_len = max(1.0, 2.0 * self.model.mean_phase_len * share)
            # Half deterministic + half geometric: bursty phase lengths
            # without the heavy tail that would let a few giant phases
            # skew a one-day trace's read/write ratio.
            base = int(mean_len * 0.5)
            self._left = base + int(self.rng.geometric(min(1.0, 2.0 / mean_len)))
            self.phases_seen += 1
        self._left -= 1
        p = self.model.write_phase_bias if self._in_write_phase else self._q
        return bool(self.rng.random() < p)
