"""Ablation: deduplication under a degraded RAID-5 array.

Beyond the paper, but squarely in its lineage (the authors' IDO work
targets RAID reconstruction): with one member disk failed, every read
touching it fans out to all survivors and every write of its data
costs reconstruct-writes -- so removing redundant writes pays *more*
in degraded mode.  The bench checks that (a) degraded mode hurts
everyone, and (b) Select-Dedupe's relative advantage over Native does
not shrink when the array is degraded.
"""

from conftest import emit

from repro.experiments import runner
from repro.metrics.report import render_table
from repro.sim.replay import ReplayConfig

SCHEMES = ("Native", "Select-Dedupe")


def run_grid(scale):
    rows = []
    for scheme in SCHEMES:
        for label, config in (
            ("healthy", ReplayConfig()),
            ("degraded", ReplayConfig(failed_disk=1)),
        ):
            result = runner.execute(runner.RunSpec(
                "web-vm", scheme, replay=config, scale=scale,
            ))
            rows.append(
                {
                    "scheme": scheme,
                    "mode": label,
                    "mean_ms": result.metrics.overall_summary().mean * 1e3,
                    "read_ms": result.metrics.read_summary().mean * 1e3,
                }
            )
    return rows


def test_ablation_degraded(benchmark, scale):
    rows = benchmark(run_grid, scale)
    text = render_table(
        "Ablation: degraded RAID-5 (web-vm, disk 1 failed)",
        ["scheme", "array", "mean (ms)", "read (ms)"],
        [[r["scheme"], r["mode"], r["mean_ms"], r["read_ms"]] for r in rows],
        note="write elimination pays more when every lost-disk access fans out",
    )
    emit("ablation_degraded", text)

    by = {(r["scheme"], r["mode"]): r["mean_ms"] for r in rows}
    # degraded mode hurts everyone
    for scheme in SCHEMES:
        assert by[(scheme, "degraded")] > by[(scheme, "healthy")]
    # ... and the dedup advantage does not shrink
    healthy_ratio = by[("Select-Dedupe", "healthy")] / by[("Native", "healthy")]
    degraded_ratio = by[("Select-Dedupe", "degraded")] / by[("Native", "degraded")]
    assert degraded_ratio <= healthy_ratio * 1.1
