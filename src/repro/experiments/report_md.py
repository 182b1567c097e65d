"""EXPERIMENTS.md generator.

Runs every experiment of the paper at a chosen scale and renders the
paper-vs-measured record.  Regenerate with::

    python -m repro.experiments.report_md [scale]

The benches in ``benchmarks/`` assert the same shapes; this module
only *records* them with the paper's published values side by side.
"""

from __future__ import annotations

import sys
from typing import List

from repro.experiments import figures, runner
from repro.experiments.runner import DEFAULT_SCALE
from repro.metrics.report import improvement_pct

#: Paper numbers quoted in the text (Section IV).
PAPER_SELECT_VS_NATIVE = {  # overall response-time improvement, %
    "web-vm": 53.9,
    "homes": 21.2,
    "mail": 88.6,
}
PAPER_SELECT_WRITE_IMPROVEMENT = {"web-vm": 47.2, "homes": 20.2, "mail": 91.6}
PAPER_IDEDUP_WRITE_IMPROVEMENT = {"web-vm": 11.6, "homes": 1.7, "mail": 54.5}
PAPER_SELECT_READ_IMPROVEMENT = {"web-vm": 11.7, "homes": 4.3, "mail": 85.3}
PAPER_FULL_READ_IMPROVEMENT = {"web-vm": -22.1, "homes": -24.7, "mail": 44.2}
PAPER_NVRAM_MB = {"web-vm": 0.8, "homes": 0.3, "mail": 1.5}


def _section(title: str, body: List[str]) -> List[str]:
    return [f"## {title}", ""] + body + [""]


def build_report(scale: float = DEFAULT_SCALE) -> str:
    lines: List[str] = [
        "# EXPERIMENTS — paper vs measured",
        "",
        f"All measurements from this repository's simulator at generator "
        f"scale `{scale}` (regenerate: `python -m repro.experiments.report_md "
        f"{scale}`, or run `pytest benchmarks/ --benchmark-only`, which also "
        "asserts every shape below).  Absolute times are not comparable to "
        "the paper's hardware testbed; the *shapes* are the reproduction "
        "target (DESIGN.md §3).",
        "",
    ]

    # ---- Table I ------------------------------------------------------
    _rows, text = figures.table1_features()
    lines += _section(
        "Table I — feature comparison",
        ["Reproduced exactly (qualitative):", "", "```", text, "```"],
    )

    # ---- Table II -----------------------------------------------------
    _rows, text = figures.table2_characteristics(scale)
    lines += _section(
        "Table II — trace characteristics",
        [
            "Generator calibration vs the published characteristics "
            "(I/O counts scale with the generator scale):",
            "",
            "```",
            text,
            "```",
        ],
    )

    # ---- Fig. 1 -------------------------------------------------------
    _data, text = figures.fig1_redundancy_by_size(scale)
    lines += _section(
        "Fig. 1 — I/O redundancy by request size",
        [
            "Paper shape: small writes dominate the request population and "
            "carry the most redundant requests; large requests are mostly "
            "partially redundant.  Measured:",
            "",
            "```",
            text,
            "```",
        ],
    )

    # ---- Fig. 2 -------------------------------------------------------
    rows, text = figures.fig2_io_vs_capacity(scale)
    gap = sum(r["same_location_pct"] for r in rows) / len(rows)
    lines += _section(
        "Fig. 2 — I/O vs capacity redundancy",
        [
            "Paper: I/O redundancy exceeds capacity redundancy by 21.9 "
            f"points on average.  Measured average gap: **{gap:.1f} points** "
            "(same-location redundant writes).",
            "",
            "```",
            text,
            "```",
        ],
    )

    # ---- Fig. 3 -------------------------------------------------------
    _rows, text = figures.fig3_partition_sweep(scale=scale)
    lines += _section(
        "Fig. 3 — fixed index/read partition sweep (mail, Full-Dedupe)",
        [
            "Paper shape: larger index cache -> faster writes, slower "
            "reads.  Measured (the sweep replays a calmer-load variant of "
            "the mail trace — at the main experiments' burst intensity, "
            "disk-queue coupling drowns the read-cache signal in our "
            "simulator; this substitution affects Fig. 3 only):",
            "",
            "```",
            text,
            "```",
        ],
    )

    # ---- Figs. 8 & 9 --------------------------------------------------
    # Figs. 8-11 and the NVRAM table read one 3x5 matrix: run it as
    # one batch, so the figures below are memo hits.
    matrix = runner.run_matrix(figures.TRACE_ORDER, runner.PAPER_SCHEMES, scale=scale)
    fig8, text8 = figures.fig8_overall_response(scale)
    fig9, text9 = figures.fig9_read_write_split(scale)
    body = ["```", text8, "", text9, "```", "", "Headline comparisons:", ""]
    body.append(
        "| trace | Select-Dedupe vs Native, overall | paper | write RT cut "
        "(Select) | paper | write RT cut (iDedup) | paper |"
    )
    body.append("|---|---|---|---|---|---|---|")
    for trace in figures.TRACE_ORDER:
        native = matrix[(trace, "Native")].metrics
        select = matrix[(trace, "Select-Dedupe")].metrics
        idedup = matrix[(trace, "iDedup")].metrics
        overall = improvement_pct(
            native.overall_summary().mean, select.overall_summary().mean
        )
        wsel = improvement_pct(native.write_summary().mean, select.write_summary().mean)
        wid = improvement_pct(native.write_summary().mean, idedup.write_summary().mean)
        body.append(
            f"| {trace} | {overall:+.1f}% | +{PAPER_SELECT_VS_NATIVE[trace]}% "
            f"| {wsel:+.1f}% | +{PAPER_SELECT_WRITE_IMPROVEMENT[trace]}% "
            f"| {wid:+.1f}% | +{PAPER_IDEDUP_WRITE_IMPROVEMENT[trace]}% |"
        )
    body += [
        "",
        "Read-path record (paper: Full-Dedupe degrades web-vm/homes reads "
        "by 22.1%/24.7% and improves mail's by 44.2%; Select-Dedupe "
        "improves reads by 11.7%/4.3%/85.3%):",
        "",
        "| trace | Full-Dedupe read | paper | Select-Dedupe read | paper |",
        "|---|---|---|---|---|",
    ]
    for trace in figures.TRACE_ORDER:
        native = matrix[(trace, "Native")].metrics.read_summary().mean
        full = matrix[(trace, "Full-Dedupe")].metrics.read_summary().mean
        select = matrix[(trace, "Select-Dedupe")].metrics.read_summary().mean
        body.append(
            f"| {trace} | {improvement_pct(native, full):+.1f}% "
            f"| {PAPER_FULL_READ_IMPROVEMENT[trace]:+.1f}% "
            f"| {improvement_pct(native, select):+.1f}% "
            f"| +{PAPER_SELECT_READ_IMPROVEMENT[trace]}% |"
        )
    body += [
        "",
        "Deviations: (1) our relative gains on mail are smaller than the "
        "paper's -- hot-index detection tops out near 50% of mail's "
        "writes at this cache pressure, vs the 70.7% reported; (2) "
        "Full-Dedupe's mail *reads* do not improve here because its "
        "on-disk index lookups load the same spindles the reads use; (3) "
        "Select-Dedupe's reads on web-vm/homes sit a few percent *above* "
        "Native instead of a few percent below -- Native devotes its "
        "entire DRAM budget to the read cache, while Select-Dedupe gives "
        "half to the index, and in our simulator that cache handicap "
        "slightly outweighs the queue relief on the read-light traces.  "
        "Every cross-scheme ordering of Figs. 8-11 matches the paper.",
    ]
    lines += _section("Figs. 8 & 9 — response times (4-disk RAID-5)", body)

    # ---- Fig. 10 ------------------------------------------------------
    _data, text = figures.fig10_capacity(scale)
    lines += _section(
        "Fig. 10 — storage capacity used",
        [
            "Paper shape: Full-Dedupe saves most; Select-Dedupe saves at "
            "least as much as iDedup, clearly more on mail.  Measured:",
            "",
            "```",
            text,
            "```",
        ],
    )

    # ---- Fig. 11 ------------------------------------------------------
    data, text = figures.fig11_write_reduction(scale)
    pod_total = sum(data[t]["POD"] for t in data) / len(data)
    sel_total = sum(data[t]["Select-Dedupe"] for t in data) / len(data)
    lines += _section(
        "Fig. 11 — removed write requests",
        [
            "Paper shape: Full-Dedupe removes most, iDedup fewest, POD "
            "slightly more than Select-Dedupe (iCache grows the index "
            f"during write bursts).  Measured means: POD {pod_total:.1f}% "
            f"vs Select-Dedupe {sel_total:.1f}%.",
            "",
            "```",
            text,
            "```",
        ],
    )

    # ---- NVRAM overhead -----------------------------------------------
    data, text = figures.nvram_overhead(scale)
    lines += _section(
        "Section IV-D.2 — Map-table NVRAM overhead",
        [
            "Paper: 0.8 / 0.3 / 1.5 MB peaks for web-vm / homes / mail at "
            "full trace volume; 20 B per entry.  Measured (at this scale) "
            "the ordering and magnitude class match:",
            "",
            "```",
            text,
            "```",
        ],
    )

    lines += _section(
        "Ablations (beyond the paper)",
        [
            "* `benchmarks/bench_ablation_threshold.py` — the Select-Dedupe "
            "category-3 threshold: threshold 1 dedupes scattered chunks and "
            "fragments reads; large thresholds converge to iDedup.",
            "* `benchmarks/bench_ablation_icache.py` — iCache epoch x step "
            "grid: longer epochs repartition less and perform best "
            "(default 4 s); every configuration stays within 25% of the "
            "fixed split while detecting at least as many duplicates.",
        ],
    )

    return "\n".join(lines)


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_SCALE
    report = build_report(scale)
    from pathlib import Path

    out = Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"
    out.write_text(report + "\n")
    print(f"wrote {out} ({len(report.splitlines())} lines)")


if __name__ == "__main__":
    main()
