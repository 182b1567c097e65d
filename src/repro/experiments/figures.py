"""One function per table/figure of the paper's evaluation.

Every function returns ``(rows, rendered)`` where ``rows`` is the raw
data (asserted on by the benches) and ``rendered`` is a text table in
the paper's layout.  Absolute numbers differ from the paper (our
substrate is a simulator, not the authors' testbed); the benches
check the *shapes* listed in DESIGN.md section 3.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments import runner
from repro.experiments.runner import DEFAULT_SCALE, PAPER_SCHEMES
from repro.metrics.report import normalize_to, render_table
from repro.sim.replay import ReplayResult
from repro.traces.stats import (
    io_vs_capacity_redundancy,
    redundancy_by_size,
    trace_characteristics,
)
from repro.traces.synthetic import paper_traces

#: Trace order used throughout the paper's figures.
TRACE_ORDER: Tuple[str, ...] = ("web-vm", "homes", "mail")

#: The four schemes of Figs. 8-10.
FIG8_SCHEMES: Tuple[str, ...] = ("Native", "Full-Dedupe", "iDedup", "Select-Dedupe")


# ----------------------------------------------------------------------
# Table I -- qualitative feature comparison
# ----------------------------------------------------------------------

def table1_features() -> Tuple[List[dict], str]:
    """Table I: POD vs the state-of-the-art schemes."""
    order = ("I/O-Dedup", "iDedup", "Post-Process", "POD")
    rows = []
    for name in order:
        cls = runner.SCHEME_CLASSES[name]
        row = {"scheme": name}
        row.update(cls.features)
        rows.append(row)
    table = render_table(
        "Table I: feature comparison",
        ["feature"] + list(order),
        [
            ["capacity saving"] + [r["capacity_saving"] for r in rows],
            ["performance enhancement"] + [r["performance_enhancement"] for r in rows],
            ["small-writes elimination"] + [r["small_writes_elimination"] for r in rows],
            ["large-writes elimination"] + [r["large_writes_elimination"] for r in rows],
            ["cache partitioning"] + [r["cache_partitioning"] for r in rows],
        ],
        note="the same four columns as the paper's Table I",
    )
    return rows, table


# ----------------------------------------------------------------------
# Table II -- trace characteristics
# ----------------------------------------------------------------------

def table2_characteristics(scale: float = DEFAULT_SCALE) -> Tuple[List[dict], str]:
    """Table II: write ratio / I/Os / mean request size per trace."""
    specs = paper_traces()
    paper = {  # the published Table II, for side-by-side comparison
        "web-vm": (69.8, 154_105, 14.8),
        "homes": (80.5, 64_819, 13.1),
        "mail": (78.5, 328_145, 40.8),
    }
    rows: List[dict] = []
    body = []
    for name in TRACE_ORDER:
        trace = runner.get_trace(specs[name], scale=scale)
        ch = trace_characteristics(trace)
        rows.append(
            {
                "trace": name,
                "write_ratio_pct": ch.write_ratio * 100.0,
                "io_count": ch.io_count,
                "mean_request_kb": ch.mean_request_kb,
            }
        )
        p = paper[name]
        body.append(
            [
                name,
                f"{ch.write_ratio * 100.0:.1f}% (paper {p[0]}%)",
                f"{ch.io_count} (paper {p[1]} at full scale)",
                f"{ch.mean_request_kb:.1f} KB (paper {p[2]} KB)",
            ]
        )
    table = render_table(
        "Table II: trace characteristics",
        ["trace", "write ratio", "I/Os", "mean request size"],
        body,
        note=f"measured day only, generator scale={scale}",
    )
    return rows, table


# ----------------------------------------------------------------------
# Fig. 1 -- redundancy by request size
# ----------------------------------------------------------------------

def fig1_redundancy_by_size(scale: float = DEFAULT_SCALE) -> Tuple[Dict[str, list], str]:
    """Fig. 1: I/O redundancy across request-size buckets, per trace."""
    specs = paper_traces()
    data: Dict[str, list] = {}
    blocks = []
    for name in TRACE_ORDER:
        trace = runner.get_trace(specs[name], scale=scale)
        rows = redundancy_by_size(trace)
        data[name] = rows
        body = [
            [
                f"<= {r.bucket_kb} KB" if r.bucket_kb != 64 else ">= 64 KB",
                r.total,
                r.fully_redundant,
                r.partially_redundant,
                f"{(r.redundant / r.total * 100.0) if r.total else 0.0:.1f}%",
            ]
            for r in rows
        ]
        blocks.append(
            render_table(
                f"Fig. 1 ({name}): write redundancy by request size",
                ["size", "total", "fully redundant", "partially redundant", "redundant %"],
                body,
            )
        )
    return data, "\n\n".join(blocks)


# ----------------------------------------------------------------------
# Fig. 2 -- I/O vs capacity redundancy
# ----------------------------------------------------------------------

def fig2_io_vs_capacity(scale: float = DEFAULT_SCALE) -> Tuple[List[dict], str]:
    """Fig. 2: same-location vs different-location write redundancy."""
    specs = paper_traces()
    rows: List[dict] = []
    body = []
    for name in TRACE_ORDER:
        trace = runner.get_trace(specs[name], scale=scale)
        b = io_vs_capacity_redundancy(trace)
        rows.append(
            {
                "trace": name,
                "same_location_pct": b.same_location_pct,
                "different_location_pct": b.different_location_pct,
                "io_redundancy_pct": b.io_redundancy_pct,
                "capacity_redundancy_pct": b.capacity_redundancy_pct,
            }
        )
        body.append(
            [
                name,
                f"{b.same_location_pct:.1f}%",
                f"{b.different_location_pct:.1f}%",
                f"{b.io_redundancy_pct:.1f}%",
            ]
        )
    table = render_table(
        "Fig. 2: I/O redundancy vs capacity redundancy (% of write blocks)",
        ["trace", "same location", "different location (capacity)", "I/O redundancy (sum)"],
        body,
        note="paper reports the I/O-over-capacity gap averaging 21.9%",
    )
    return rows, table


# ----------------------------------------------------------------------
# Fig. 3 -- fixed-partition sweep
# ----------------------------------------------------------------------

def fig3_partition_sweep(
    trace_name: str = "mail",
    fractions: Sequence[float] = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
    scale: float = DEFAULT_SCALE,
) -> Tuple[List[dict], str]:
    """Fig. 3: read/write response time vs index-cache share.

    Runs Full-Dedupe (the paper's 'deduplication-based storage
    system' for this motivation experiment) on the mail trace with a
    fixed partition at each index fraction.

    The sweep replays a *calmer* variant of the trace (longer
    inter-burst gaps, same request mix): Fig. 3 isolates the cache
    tradeoff, and at the main experiments' load level disk-queue
    coupling would drown the read-cache signal.  The substitution is
    recorded in EXPERIMENTS.md.
    """
    from dataclasses import replace as _replace

    from repro.traces.workload import BurstModel

    spec = paper_traces()[trace_name]
    calm = _replace(
        spec,
        name=f"{trace_name}-fig3",
        burst=BurstModel(
            mean_burst_size=spec.burst.mean_burst_size,
            intra_gap=spec.burst.intra_gap,
            inter_gap=max(spec.burst.inter_gap, 0.5),
        ),
    )
    rows: List[dict] = []
    body = []
    for fraction in fractions:
        result = runner.execute(runner.RunSpec(
            calm, "Full-Dedupe", {"index_fraction": fraction}, scale=scale
        ))
        read = result.metrics.read_summary()
        write = result.metrics.write_summary()
        rows.append(
            {
                "index_fraction": fraction,
                "read_mean_ms": read.mean * 1e3,
                "write_mean_ms": write.mean * 1e3,
            }
        )
        body.append([f"{int(fraction * 100)}%", read.mean * 1e3, write.mean * 1e3])
    table = render_table(
        f"Fig. 3 ({trace_name}): response time vs index-cache share",
        ["index cache share", "read mean (ms)", "write mean (ms)"],
        body,
        note="larger index cache -> better writes, worse reads (Section II-B)",
    )
    return rows, table


# ----------------------------------------------------------------------
# Figs. 8-11 -- the main comparison
# ----------------------------------------------------------------------

def _matrix(
    scale: float, schemes: Iterable[str] = PAPER_SCHEMES
) -> Dict[Tuple[str, str], ReplayResult]:
    return runner.run_matrix(TRACE_ORDER, schemes, scale=scale)


def fig8_overall_response(scale: float = DEFAULT_SCALE) -> Tuple[Dict[str, Dict[str, float]], str]:
    """Fig. 8: overall response time normalized to Native (%)."""
    matrix = _matrix(scale, FIG8_SCHEMES)
    data: Dict[str, Dict[str, float]] = {}
    body = []
    for trace in TRACE_ORDER:
        means = {
            scheme: matrix[(trace, scheme)].metrics.overall_summary().mean
            for scheme in FIG8_SCHEMES
        }
        data[trace] = normalize_to(means, "Native")
        body.append([trace] + [data[trace][s] for s in FIG8_SCHEMES])
    table = render_table(
        "Fig. 8: overall response time, normalized to Native (%)",
        ["trace"] + list(FIG8_SCHEMES),
        body,
        note="4-disk RAID-5, 64KB stripes; fixed 50/50 cache split for dedup schemes",
    )
    return data, table


def fig9_read_write_split(scale: float = DEFAULT_SCALE) -> Tuple[Dict[str, Dict[str, Dict[str, float]]], str]:
    """Fig. 9: write (a) and read (b) response times, normalized."""
    matrix = _matrix(scale, FIG8_SCHEMES)
    data: Dict[str, Dict[str, Dict[str, float]]] = {"write": {}, "read": {}}
    blocks = []
    for kind, summary_of in (
        ("write", lambda r: r.metrics.write_summary().mean),
        ("read", lambda r: r.metrics.read_summary().mean),
    ):
        body = []
        for trace in TRACE_ORDER:
            means = {s: summary_of(matrix[(trace, s)]) for s in FIG8_SCHEMES}
            data[kind][trace] = normalize_to(means, "Native")
            body.append([trace] + [data[kind][trace][s] for s in FIG8_SCHEMES])
        blocks.append(
            render_table(
                f"Fig. 9{'a' if kind == 'write' else 'b'}: {kind} response time, "
                "normalized to Native (%)",
                ["trace"] + list(FIG8_SCHEMES),
                body,
            )
        )
    return data, "\n\n".join(blocks)


def fig10_capacity(scale: float = DEFAULT_SCALE) -> Tuple[Dict[str, Dict[str, float]], str]:
    """Fig. 10: storage capacity used, normalized to Native (%)."""
    matrix = _matrix(scale, FIG8_SCHEMES)
    data: Dict[str, Dict[str, float]] = {}
    body = []
    for trace in TRACE_ORDER:
        capacities = {
            scheme: float(matrix[(trace, scheme)].capacity_blocks)
            for scheme in FIG8_SCHEMES
        }
        data[trace] = normalize_to(capacities, "Native")
        body.append([trace] + [data[trace][s] for s in FIG8_SCHEMES])
    table = render_table(
        "Fig. 10: storage capacity used, normalized to Native (%)",
        ["trace"] + list(FIG8_SCHEMES),
        body,
    )
    return data, table


def fig11_write_reduction(scale: float = DEFAULT_SCALE) -> Tuple[Dict[str, Dict[str, float]], str]:
    """Fig. 11: % of write requests removed, incl. POD."""
    schemes = ("Full-Dedupe", "iDedup", "Select-Dedupe", "POD")
    matrix = _matrix(scale, schemes)
    data: Dict[str, Dict[str, float]] = {}
    body = []
    for trace in TRACE_ORDER:
        data[trace] = {s: matrix[(trace, s)].removed_write_pct for s in schemes}
        body.append([trace] + [data[trace][s] for s in schemes])
    table = render_table(
        "Fig. 11: removed write requests (%)",
        ["trace"] + list(schemes),
        body,
        note="paper: Select-Dedupe removes 70.7% of mail's writes",
    )
    return data, table


# ----------------------------------------------------------------------
# Section IV-D.2 -- NVRAM overhead
# ----------------------------------------------------------------------

def nvram_overhead(scale: float = DEFAULT_SCALE) -> Tuple[Dict[str, float], str]:
    """Map-table NVRAM peak footprint under POD, per trace."""
    matrix = _matrix(scale, ("POD",))
    data: Dict[str, float] = {}
    body = []
    paper_mb = {"web-vm": 0.8, "homes": 0.3, "mail": 1.5}
    for trace in TRACE_ORDER:
        peak = matrix[(trace, "POD")].scheme_stats["nvram_peak_bytes"]
        data[trace] = peak / 1e6
        body.append([trace, f"{peak / 1e6:.2f} MB", f"{paper_mb[trace]} MB (full scale)"])
    table = render_table(
        "Section IV-D.2: Map-table NVRAM peak (20 B/entry)",
        ["trace", "measured", "paper"],
        body,
    )
    return data, table
