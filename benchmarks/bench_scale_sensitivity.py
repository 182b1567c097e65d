"""Scale sensitivity: does iCache matter more with larger data sets?

Section IV-C: "It is arguable that with a larger data set the iCache
will be much more effective ... making cache allocation all the more
important for and sensitive to performance gains."  This bench runs
POD against the fixed-partition Select-Dedupe at increasing generator
scales (footprint, request count and DRAM all grow proportionally) and
records the write-removal gap.
"""

from conftest import emit

from repro.experiments import runner
from repro.metrics.report import render_table

SCALES = (0.05, 0.15, 0.35)
TRACE = "web-vm"


def run_sweep(_ignored=None):
    rows = []
    for s in SCALES:
        select = runner.execute(runner.RunSpec(
            TRACE, "Select-Dedupe", scale=s,
        ))
        pod = runner.execute(runner.RunSpec(TRACE, "POD", scale=s))
        rows.append(
            {
                "scale": s,
                "select_removed": select.removed_write_pct,
                "pod_removed": pod.removed_write_pct,
                "gap_pp": pod.removed_write_pct - select.removed_write_pct,
                "select_mean_ms": select.metrics.overall_summary().mean * 1e3,
                "pod_mean_ms": pod.metrics.overall_summary().mean * 1e3,
            }
        )
    return rows


def test_scale_sensitivity(benchmark):
    rows = benchmark(run_sweep)
    text = render_table(
        f"Scale sensitivity: POD vs fixed split ({TRACE})",
        ["scale", "Select removed %", "POD removed %", "gap (pp)", "Select mean (ms)", "POD mean (ms)"],
        [
            [r["scale"], r["select_removed"], r["pod_removed"], r["gap_pp"], r["select_mean_ms"], r["pod_mean_ms"]]
            for r in rows
        ],
        note="Section IV-C expects the adaptive cache to keep paying off as the data set grows",
    )
    emit("scale_sensitivity", text)

    # POD detects at least as many duplicates at every scale...
    assert all(r["gap_pp"] > -1.0 for r in rows)
    # ... and clearly more at the largest one.
    assert rows[-1]["gap_pp"] > 0.5
    # The adaptive cache never costs more than a few percent overall.
    assert all(r["pod_mean_ms"] <= r["select_mean_ms"] * 1.1 for r in rows)
