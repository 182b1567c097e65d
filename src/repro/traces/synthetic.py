"""Seeded synthetic generators for the three FIU-like traces.

The FIU SyLab traces (web-vm, homes, mail) are not redistributable, so
the generators below synthesise request streams calibrated to every
statistic the paper publishes about them:

* Table II -- write ratio, I/O count, mean request size;
* Fig. 1 -- small writes dominate and carry the highest redundancy;
* Fig. 2 -- I/O redundancy exceeds capacity redundancy, because a
  noticeable share of redundant writes re-write the *same* location
  with the same content (temporal locality);
* Section IV-B -- the per-trace redundancy *structure* that drives the
  results: mail is rich in fully redundant writes (Select-Dedupe
  removes ~70% of its writes), homes is rich in *scattered partially
  redundant* writes (deduplicating them fragments reads and makes
  Full-Dedupe slower than Native), web-vm sits in between;
* Section II-B -- read-intensive and write-intensive phases alternate
  (what iCache exploits).

Every write request is assigned a redundancy class:

=================  ====================================================
``unique``         fresh content, never seen before
``full``           an exact copy of an earlier request's contiguous
                   run (optionally re-written to the same LBA)
``partial_seq``    a sequential duplicate run of >= threshold chunks
                   plus fresh chunks (Select-Dedupe category 3)
``partial_scat``   a few isolated duplicate chunks scattered through
                   fresh data (Select-Dedupe category 2 -- the read-
                   amplification trap)
=================  ====================================================

Generation is deterministic given ``(spec, seed, scale)``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import TraceError
from repro.traces.columnar import OP_READ, OP_WRITE, ColumnarTrace, intern_fingerprints
from repro.traces.format import Trace
from repro.traces.workload import (
    ArrivalProcess,
    BurstModel,
    PhaseModel,
    PhaseProcess,
    SizeDistribution,
    ZipfChooser,
    check_probs,
    choice_cdf,
)

#: Redundancy class labels, in a fixed order for categorical draws.
CLASSES: Tuple[str, ...] = ("unique", "full", "partial_seq", "partial_scat")


@dataclass(frozen=True)
class TraceSpec:
    """Full parameterisation of one synthetic trace."""

    name: str
    #: Measured (day-15) request count at scale=1.
    n_requests: int
    #: Warm-up prefix (the paper warms with days 1-14).
    warmup_requests: int
    #: Logical address space, 4 KB blocks, at scale=1.
    logical_blocks: int
    #: Long-run write fraction (Table II).
    write_ratio: float
    #: Write-size distribution, blocks -> probability.
    write_sizes: Dict[int, float]
    #: Read-size distribution.
    read_sizes: Dict[int, float]
    #: Redundancy-class probabilities for writes (keys = CLASSES).
    class_probs: Dict[str, float]
    #: For ``full`` writes: probability the copy goes to the donor's
    #: own LBA (same-location redundancy; Fig. 2's gap).
    p_same_lba: float
    #: For ``unique`` writes: probability of overwriting an old
    #: segment instead of appending at the cursor.
    p_overwrite_unique: float = 0.25
    #: Zipf exponent for donor recency popularity (writes).
    zipf_s: float = 0.9
    #: Zipf exponent for read-target popularity.  Reads are typically
    #: more concentrated than write duplication (a small hot set of
    #: files serves most reads), which is what gives the read cache
    #: its utility in the Fig. 3 tradeoff.  ``None`` -> ``zipf_s``.
    read_zipf_s: Optional[float] = None
    #: How many recent write segments stay eligible as donors/targets.
    #: Sized so that the fingerprint working set *exceeds* the index
    #: cache at the suggested memory budget -- the same index-cache
    #: pressure the paper's full-size footprints create (Section II-B).
    recent_segments: int = 12288
    #: Arrival burstiness.
    burst: BurstModel = field(default_factory=BurstModel)
    #: Mean phase length in requests (read/write phase alternation).
    mean_phase_len: int = 400
    #: Probability a read targets a cold random location.
    p_cold_read: float = 0.10
    #: Suggested DRAM budget for the storage cache, bytes, at scale=1
    #: (mirrors the per-trace memory sizes of Section IV-A).
    memory_bytes: int = 8 * 1024 * 1024
    #: Default RNG seed (overridable in generate_trace).
    seed: int = 2014

    def __post_init__(self) -> None:
        if self.n_requests < 1 or self.warmup_requests < 0:
            raise TraceError("request counts must be positive")
        if self.logical_blocks < 64:
            raise TraceError("logical space unreasonably small")
        if not (0.0 < self.write_ratio < 1.0):
            raise TraceError("write ratio must be in (0, 1)")
        if set(self.class_probs) != set(CLASSES):
            raise TraceError(f"class_probs must have exactly the keys {CLASSES}")
        check_probs([self.class_probs[c] for c in CLASSES], "class")
        if not (0.0 <= self.p_same_lba <= 1.0):
            raise TraceError("p_same_lba outside [0, 1]")

    def scaled(self, scale: float) -> "TraceSpec":
        """Proportionally scale request counts, footprint and memory.

        Keeping the footprint/memory ratio constant preserves cache
        pressure, so results at small scales stay representative.
        """
        if scale <= 0:
            raise TraceError("scale must be positive")
        return replace(
            self,
            n_requests=max(1, int(self.n_requests * scale)),
            warmup_requests=int(self.warmup_requests * scale),
            logical_blocks=max(4096, int(self.logical_blocks * scale)),
            memory_bytes=max(64 * 1024, int(self.memory_bytes * scale)),
            recent_segments=max(256, int(self.recent_segments * min(1.0, scale * 2))),
            mean_phase_len=max(50, int(self.mean_phase_len * scale)),
        )


# ----------------------------------------------------------------------
# the three paper traces (Table II: write ratio / I/Os / mean size)
# ----------------------------------------------------------------------

#: web-vm: two web servers in a VM; 69.8% writes, 154,105 I/Os,
#: 14.8 KB mean request size; moderate redundancy, mixed structure.
WEB_VM = TraceSpec(
    name="web-vm",
    n_requests=30_000,
    warmup_requests=30_000,
    logical_blocks=160 * 1024,  # 640 MiB footprint
    write_ratio=0.698,
    write_sizes={1: 0.41, 2: 0.26, 4: 0.16, 8: 0.09, 16: 0.05, 32: 0.03},
    read_sizes={1: 0.37, 2: 0.25, 4: 0.19, 8: 0.11, 16: 0.05, 32: 0.03},
    class_probs={"unique": 0.35, "full": 0.40, "partial_seq": 0.10, "partial_scat": 0.15},
    p_same_lba=0.50,
    burst=BurstModel(mean_burst_size=8.0, inter_gap=0.30),
    memory_bytes=1 * 1024 * 1024,
    seed=151,
)

#: homes: a file server; 80.5% writes, 64,819 I/Os, 13.1 KB mean size;
#: redundancy dominated by *scattered partial* duplicates, which is
#: what makes Full-Dedupe counterproductive on it (Figs. 8-9).
HOMES = TraceSpec(
    name="homes",
    n_requests=13_000,
    warmup_requests=13_000,
    logical_blocks=128 * 1024,  # 512 MiB footprint
    write_ratio=0.805,
    write_sizes={1: 0.50, 2: 0.24, 4: 0.12, 8: 0.07, 16: 0.05, 32: 0.02},
    read_sizes={1: 0.45, 2: 0.25, 4: 0.15, 8: 0.09, 16: 0.04, 32: 0.02},
    class_probs={"unique": 0.38, "full": 0.17, "partial_seq": 0.05, "partial_scat": 0.40},
    p_same_lba=0.50,
    burst=BurstModel(mean_burst_size=6.0, inter_gap=0.40),
    memory_bytes=1 * 1024 * 1024,
    seed=152,
)

#: mail: an email server; 78.5% writes, 328,145 I/Os, 40.8 KB mean
#: size; rich in fully redundant writes (Select-Dedupe removes ~70%
#: of them) including large ones, hence the big mean request size.
MAIL = TraceSpec(
    name="mail",
    n_requests=64_000,
    warmup_requests=64_000,
    logical_blocks=1024 * 1024,  # 4 GiB footprint
    write_ratio=0.785,
    write_sizes={1: 0.32, 2: 0.14, 4: 0.11, 8: 0.10, 16: 0.14, 32: 0.11, 64: 0.06, 128: 0.02},
    read_sizes={1: 0.34, 2: 0.15, 4: 0.13, 8: 0.12, 16: 0.13, 32: 0.09, 64: 0.04},
    class_probs={"unique": 0.18, "full": 0.68, "partial_seq": 0.08, "partial_scat": 0.06},
    p_same_lba=0.45,
    read_zipf_s=1.25,  # mail reads concentrate on a small hot set
    burst=BurstModel(mean_burst_size=12.0, inter_gap=0.22),
    memory_bytes=2560 * 1024,
    seed=153,
)


def paper_traces() -> Dict[str, TraceSpec]:
    """The three evaluation traces keyed by name."""
    return {spec.name: spec for spec in (WEB_VM, HOMES, MAIL)}


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------


class _GeneratorState:
    """Mutable state threaded through one trace generation."""

    def __init__(self, spec: TraceSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self.rng = rng
        self.fresh_fp = itertools.count(1)
        #: Recent write segments: (lba, fps) most recent last.
        self.segments: List[Tuple[int, Tuple[int, ...]]] = []
        self.cursor = 0
        self.zipf = ZipfChooser(1, spec.zipf_s)
        self.read_zipf = ZipfChooser(
            1, spec.zipf_s if spec.read_zipf_s is None else spec.read_zipf_s
        )
        self.write_sizes = SizeDistribution.of(spec.write_sizes)
        self.read_sizes = SizeDistribution.of(spec.read_sizes)
        self.class_cdf = choice_cdf([spec.class_probs[c] for c in CLASSES])

    # -- segment pool ---------------------------------------------------

    def remember(self, lba: int, fps: Tuple[int, ...]) -> None:
        self.segments.append((lba, fps))
        if len(self.segments) > self.spec.recent_segments:
            del self.segments[0 : len(self.segments) - self.spec.recent_segments]

    def pick_segment(self) -> Optional[Tuple[int, Tuple[int, ...]]]:
        """Zipf-by-recency donor choice (rank 0 = most recent)."""
        if not self.segments:
            return None
        self.zipf.resize(len(self.segments))
        rank = self.zipf.draw(self.rng)
        return self.segments[len(self.segments) - 1 - rank]

    def pick_read_segment(self) -> Optional[Tuple[int, Tuple[int, ...]]]:
        """Read-target choice (usually more skewed than donors)."""
        if not self.segments:
            return None
        self.read_zipf.resize(len(self.segments))
        rank = self.read_zipf.draw(self.rng)
        return self.segments[len(self.segments) - 1 - rank]

    def pick_segment_min_len(
        self, nblocks: int, tries: int = 8
    ) -> Optional[Tuple[int, Tuple[int, ...]]]:
        """Prefer a donor at least ``nblocks`` long.

        Large fully redundant writes (a mail server rewriting whole
        mailboxes) need donors of the same size; without this
        preference every big duplicate would be truncated to a small
        one, starving iDedup of the long runs it deduplicates.
        """
        best = None
        for _ in range(tries):
            seg = self.pick_segment()
            if seg is None:
                return None
            if len(seg[1]) >= nblocks:
                return seg
            if best is None or len(seg[1]) > len(best[1]):
                best = seg
        return best

    # -- address allocation ----------------------------------------------

    def alloc_lba(self, nblocks: int) -> int:
        """Append at the cursor, wrapping the logical space."""
        if nblocks > self.spec.logical_blocks:
            raise TraceError("request larger than the logical space")
        if self.cursor + nblocks > self.spec.logical_blocks:
            self.cursor = 0
        lba = self.cursor
        self.cursor += nblocks
        return lba

    def fresh(self, n: int) -> Tuple[int, ...]:
        return tuple(itertools.islice(self.fresh_fp, n))

    def draw_class(self) -> str:
        """A write's redundancy class, drawn from ``spec.class_probs``."""
        return CLASSES[bisect_right(self.class_cdf, self.rng.random())]


def _gen_write(state: _GeneratorState) -> Tuple[int, Tuple[int, ...]]:
    """One write request: returns (lba, fingerprints)."""
    spec, rng = state.spec, state.rng
    cls = state.draw_class()
    n = state.write_sizes.draw(rng)

    if cls in ("partial_seq", "partial_scat") and n < 4:
        # Partial redundancy needs room for a mixture; small requests
        # fall back to the dominant small-write classes.
        cls = "full" if rng.random() < 0.5 else "unique"

    donor = state.pick_segment()
    if donor is None and cls != "unique":
        cls = "unique"

    if cls == "unique":
        fps = state.fresh(n)
        if state.segments and rng.random() < spec.p_overwrite_unique:
            lba, old_fps = state.segments[
                len(state.segments) - 1 - state.zipf.draw(rng)
            ]
            n = min(n, len(old_fps))
            fps = fps[:n]
        else:
            lba = state.alloc_lba(n)
        return lba, fps

    assert donor is not None
    d_lba, d_fps = donor

    if cls == "full":
        better = state.pick_segment_min_len(n)
        if better is not None:
            d_lba, d_fps = better
        n = min(n, len(d_fps))
        off = 0 if n == len(d_fps) else int(rng.integers(0, len(d_fps) - n + 1))
        fps = d_fps[off : off + n]
        if rng.random() < spec.p_same_lba:
            lba = d_lba + off  # re-write the same location, same content
        else:
            lba = state.alloc_lba(n)
        return lba, fps

    if cls == "partial_seq":
        # A sequential duplicate run (>= 3 chunks) plus fresh tail.
        run = max(3, n // 2)
        run = min(run, len(d_fps), n - 1)
        if run < 3:
            return state.alloc_lba(n), state.fresh(n)
        off = int(rng.integers(0, len(d_fps) - run + 1))
        fps = tuple(d_fps[off : off + run]) + state.fresh(n - run)
        return state.alloc_lba(n), fps

    # partial_scat: isolated duplicate chunks from *different* donors,
    # scattered through fresh data.  Every second position keeps the
    # duplicates isolated (runs of length 1), so the category-3
    # threshold is never met and Select-Dedupe bypasses the request,
    # while Full-Dedupe fragments both the write and later reads.
    k = max(1, n // 3)
    positions = sorted(
        int(p) for p in rng.choice(np.arange(0, n, 2), size=min(k, (n + 1) // 2), replace=False)
    )
    fps_list = list(state.fresh(n))
    for pos in positions:
        seg = state.pick_segment()
        if seg is None:
            continue
        s_lba, s_fps = seg
        fps_list[pos] = s_fps[int(state.rng.integers(0, len(s_fps)))]
    return state.alloc_lba(n), tuple(fps_list)


def _gen_read(state: _GeneratorState) -> Tuple[int, int]:
    """One read request: returns (lba, nblocks)."""
    spec, rng = state.spec, state.rng
    n = state.read_sizes.draw(rng)
    seg = None if rng.random() < spec.p_cold_read else state.pick_read_segment()
    if seg is None:
        lba = int(rng.integers(0, max(1, spec.logical_blocks - n)))
        return lba, n
    s_lba, s_fps = seg
    # Start inside the segment but allow the read to run past it into
    # neighbouring data (sequential read-ahead over adjacent files);
    # only the logical space bounds the length.
    off = int(rng.integers(0, len(s_fps)))
    lba = s_lba + off
    n = min(n, spec.logical_blocks - lba)
    return lba, max(1, n)


def generate_trace(
    spec: TraceSpec,
    seed: Optional[int] = None,
    scale: float = 1.0,
) -> Trace:
    """Generate one synthetic trace.

    Parameters
    ----------
    spec:
        The trace parameterisation (see :data:`WEB_VM` etc.).
    seed:
        RNG seed; defaults to ``spec.seed``.
    scale:
        Proportional scaling of request counts / footprint / memory
        (benches use small scales for speed; 1.0 is the calibrated
        default).
    """
    if scale != 1.0:
        spec = spec.scaled(scale)
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    return _generate(_GeneratorState(spec, rng))


def _generate(state: _GeneratorState) -> Trace:
    """Draw every record of ``state.spec`` from ``state.rng``."""
    spec, rng = state.spec, state.rng
    arrivals = ArrivalProcess(spec.burst, rng)
    phases = PhaseProcess(
        PhaseModel(write_ratio=spec.write_ratio, mean_phase_len=spec.mean_phase_len),
        rng,
    )

    total = spec.warmup_requests + spec.n_requests
    times: List[float] = []
    ops: List[int] = []
    lbas: List[int] = []
    nblocks: List[int] = []
    fp_offsets = [0]
    flat: List[int] = []
    for _ in range(total):
        times.append(arrivals.next_time())
        if phases.next_is_write() or not state.segments:
            lba, fps = _gen_write(state)
            state.remember(lba, fps)
            ops.append(OP_WRITE)
            nblocks.append(len(fps))
            flat.extend(fps)
        else:
            lba, n = _gen_read(state)
            ops.append(OP_READ)
            nblocks.append(n)
        lbas.append(lba)
        fp_offsets.append(len(flat))

    return Trace.of(ColumnarTrace.from_lists(
        spec.name, spec.logical_blocks, spec.warmup_requests,
        times, ops, lbas, nblocks, fp_offsets, flat,
    ))


# ----------------------------------------------------------------------
# multi-tenant clone families (the cross-VM cloud workload)
# ----------------------------------------------------------------------

#: Fingerprint-space stride between tenants of one clone family.
#: Privatised (diverged) content of tenant *k* is shifted by
#: ``k * FP_TENANT_STRIDE`` so it can never collide with the base
#: image or another tenant's divergence, while undiverged content
#: keeps the base fingerprints and stays cross-tenant deduplicable.
FP_TENANT_STRIDE: int = 1 << 44

#: Fingerprint-space stride between *unrelated* base workloads.
#: Generators restart their fingerprint counters at 1, so replaying
#: two different traces against one shared dedup domain would
#: otherwise alias unrelated content as duplicates.
FP_FAMILY_STRIDE: int = 1 << 54


def salt_fingerprints(trace: Trace, salt: int, name: Optional[str] = None) -> Trace:
    """Shift a trace's whole fingerprint space by ``salt``.

    Used when merging *unrelated* workloads onto one shared dedup
    domain: each family gets a disjoint fingerprint range so only
    genuine (intra-family) redundancy deduplicates.  ``salt=0`` with
    no rename returns the trace unchanged.  The shift is one pass over
    the interned pool; every other column is shared with ``trace``.
    """
    if salt < 0:
        raise TraceError(f"negative fingerprint salt {salt}")
    if salt == 0 and name is None:
        return trace
    cols = trace.columns
    return Trace.of(cols.replace(
        name=cols.name if name is None else name, pool=[fp + salt for fp in cols.pool]
    ))


def clone_tenants(
    base: Trace,
    copies: int,
    divergence: float = 0.15,
    arrival_skew: float = 0.5,
    seed: int = 77,
) -> List[Trace]:
    """K tenant volumes cloned from one base image, with divergence.

    Models the paper's headline cloud scenario (Section I): many
    VMs/tenants provisioned from the same golden image whose contents
    then *diverge* per tenant.  Tenant 0 replays the pristine base
    stream; every other tenant ``k``:

    * privatises a random ``divergence`` fraction of the base image's
      distinct content -- each chosen fingerprint is consistently
      remapped into tenant ``k``'s private fingerprint range, so
      diverged content still deduplicates *within* the tenant but
      never across tenants, while the remaining content stays
      bit-identical to the base image and collapses cross-volume;
    * runs at a skewed arrival rate ``(k+1) ** -arrival_skew`` (its
      timestamps stretch accordingly), giving the merged stream the
      uneven per-tenant intensity real multi-VM hosts see (heavy
      tenants dominate early, light tenants trickle).

    On columns a tenant is a remap of the interned pool (the base's
    distinct fingerprints in first-occurrence order, one draw each)
    plus one division of ``times``; the other columns are shared.
    Deterministic given ``(base, copies, divergence, arrival_skew,
    seed)``.  ``copies=1`` returns ``[base]`` unchanged.
    """
    if copies < 1:
        raise TraceError(f"need at least one tenant copy, got {copies}")
    if not (0.0 <= divergence <= 1.0):
        raise TraceError("divergence outside [0, 1]")
    if arrival_skew < 0.0:
        raise TraceError("arrival skew must be non-negative")
    if copies == 1:
        return [base]

    cols = base.columns
    # One draw per distinct base fingerprint, in first-occurrence
    # order: the (canonically interned) pool.
    pool = cols.pool
    seen = set(pool)
    tenants = [Trace.of(cols.replace(name=f"{base.name}/t0"))]
    for k in range(1, copies):
        rng = np.random.default_rng([seed, k])
        draws = rng.random(len(pool)) if pool else np.empty(0)
        salt = k * FP_TENANT_STRIDE
        diverged = (draws < divergence).tolist()
        remapped = [fp + salt if d else fp for fp, d in zip(pool, diverged)]
        tenant = cols.replace(
            name=f"{base.name}/t{k}",
            times=cols.times / float(k + 1) ** (-arrival_skew),
            pool=remapped,
        )
        if any(fp in seen for fp, d in zip(remapped, diverged) if d):
            # A private fingerprint landed on a base value: intern again
            # so equal values share one id.
            fp_ids, pool_k = intern_fingerprints(tenant.fp_values())
            tenant = tenant.replace(fp_ids=fp_ids, pool=pool_k)
        tenants.append(Trace.of(tenant))
    return tenants
