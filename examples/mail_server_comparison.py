#!/usr/bin/env python
"""The paper's headline experiment, on one trace: an email server.

Generates the synthetic mail workload (the trace with the most fully
redundant writes -- Select-Dedupe removes ~70% of its writes in the
paper), replays it through all five schemes on a 4-disk RAID-5, and
prints a Figure-8/9/10/11-style comparison table.

Run:  python examples/mail_server_comparison.py [scale]
(default scale 0.1 ~ a few seconds; 1.0 = the full calibrated trace)
"""

import sys

from repro.experiments.runner import PAPER_SCHEMES, RunSpec, execute
from repro.metrics.report import improvement_pct, render_table


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1

    results = {
        name: execute(RunSpec("mail", name, scale=scale)) for name in PAPER_SCHEMES
    }
    native = results["Native"]
    native_mean = native.metrics.overall_summary().mean

    rows = []
    for name, result in results.items():
        overall = result.metrics.overall_summary().mean
        rows.append(
            [
                name,
                overall * 1e3,
                result.metrics.read_summary().mean * 1e3,
                result.metrics.write_summary().mean * 1e3,
                f"{improvement_pct(native_mean, overall):+.1f}%",
                f"{result.removed_write_pct:.1f}%",
                f"{result.capacity_blocks / native.capacity_blocks * 100:.1f}%",
            ]
        )

    print(
        render_table(
            f"mail trace, scale={scale}, 4-disk RAID-5 (64 KB stripes)",
            [
                "scheme",
                "mean (ms)",
                "read (ms)",
                "write (ms)",
                "vs Native",
                "writes removed",
                "capacity",
            ],
            rows,
            note="paper: Select-Dedupe removes 70.7% of mail's writes and cuts "
            "its write response time by 91.6%",
        )
    )


if __name__ == "__main__":
    main()
