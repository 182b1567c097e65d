"""Ablation: the Select-Dedupe category-3 threshold.

The paper fixes the threshold at 3 chunks without a sweep; this
ablation shows why a small-but-not-one value is the right design
point:

* threshold 1 deduplicates isolated scattered chunks -- maximal write
  reduction but it fragments reads (category 2 effectively vanishes);
* large thresholds approach iDedup's behaviour and lose the
  partially-sequential savings.
"""

from conftest import emit

from repro.experiments import runner
from repro.metrics.report import render_table

THRESHOLDS = (1, 2, 3, 6, 12)


def run_sweep(scale):
    rows = []
    for threshold in THRESHOLDS:
        result = runner.execute(runner.RunSpec(
            "homes", "Select-Dedupe", {"select_threshold": threshold},
            scale=scale,
        ))
        rows.append(
            {
                "threshold": threshold,
                "removed_pct": result.removed_write_pct,
                "read_mean_ms": result.metrics.read_summary().mean * 1e3,
                "write_mean_ms": result.metrics.write_summary().mean * 1e3,
                "read_extents": result.scheme_stats["read_extents"],
            }
        )
    return rows


def test_ablation_select_threshold(benchmark, scale):
    rows = benchmark(run_sweep, scale)
    text = render_table(
        "Ablation: Select-Dedupe threshold (homes)",
        ["threshold", "removed %", "read mean (ms)", "write mean (ms)", "read extents"],
        [
            [r["threshold"], r["removed_pct"], r["read_mean_ms"], r["write_mean_ms"], r["read_extents"]]
            for r in rows
        ],
        note="threshold 1 dedupes scattered chunks and fragments reads",
    )
    emit("ablation_threshold", text)

    by_threshold = {r["threshold"]: r for r in rows}
    # Write reduction decreases monotonically with the threshold.
    removed = [r["removed_pct"] for r in rows]
    assert all(a >= b - 0.5 for a, b in zip(removed, removed[1:]))
    # threshold 1 fragments reads: strictly more read extents issued
    # than the paper's threshold 3.
    assert by_threshold[1]["read_extents"] > by_threshold[3]["read_extents"]
    # ... and its read latency is no better.
    assert by_threshold[1]["read_mean_ms"] >= by_threshold[3]["read_mean_ms"] * 0.95
