#!/usr/bin/env python
"""Full-scale reproduction run.

Replays the complete calibrated traces (scale 1.0: the paper's request
counts -- 154k/65k/328k measured requests plus equal warm-up) through
every scheme, in parallel across CPU cores, then regenerates
EXPERIMENTS.md and the CSV export at full scale.

Expect tens of minutes on a laptop-class machine; pass a smaller scale
to trade fidelity for time::

    python scripts/run_full_scale.py [scale] [out_dir]
"""

import sys
import time
from pathlib import Path

from repro.experiments import figures
from repro.experiments.export import export_all
from repro.experiments.report_md import build_report
from repro.experiments.runner import run_matrix


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    out_dir = Path(sys.argv[2]) if len(sys.argv) > 2 else Path("full_scale_out")

    t0 = time.time()
    print(f"running the 3x5 matrix at scale {scale} on all cores ...")
    matrix = run_matrix(scale=scale)
    print(f"matrix done in {time.time() - t0:.0f}s")

    for (trace, scheme), result in sorted(matrix.items()):
        s = result.summary()
        print(
            f"  {trace:7s} {scheme:14s} mean={s['mean_response'] * 1e3:8.2f} ms "
            f"removed={result.removed_write_pct:5.1f}% capacity={result.capacity_blocks}"
        )

    print("\nregenerating figures, EXPERIMENTS.md and CSV export ...")
    report = build_report(scale)
    (out_dir / "EXPERIMENTS.md").parent.mkdir(parents=True, exist_ok=True)
    (out_dir / "EXPERIMENTS.md").write_text(report + "\n")
    export_all(out_dir / "figures", scale)

    _, fig8 = figures.fig8_overall_response(scale)
    _, fig11 = figures.fig11_write_reduction(scale)
    print()
    print(fig8)
    print()
    print(fig11)
    print(f"\nall outputs under {out_dir}/ ({time.time() - t0:.0f}s total)")


if __name__ == "__main__":
    main()
