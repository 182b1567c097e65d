"""Steadiness self-check: run each workload on several seeds and report,
per end-to-end metric, the median, quartiles and spread (interquartile
range as a share of the median) against the bound in BENCHMARK.json.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seeds 10]
        [--first-seed 1] [--sets 1] [--seconds N]

A metric whose spread exceeds its bound is flagged ``OVER``; one above a
third of its bound is flagged ``wide``.  ``setup_s`` is exempt from the
spread test and judged only on how its median moves between sets.  With
``--sets 2`` the seeds are run twice, and each metric's second median is
compared with its first: ``MOVED`` flags a change for the worse by more
than the bound.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent


def run_once(cmd: List[str], workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    """One untraced benchmark run through the command BENCHMARK.json names."""
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> Dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    failed = False
    for workload in args.workload or names:
        sets: List[Dict[str, List[float]]] = []
        for _ in range(args.sets):
            values: Dict[str, List[float]] = {name: [] for name in metrics}
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                out = run_once(spec["command"], workload, seed, args.seconds)
                if not out["correct"]:
                    print(f"{workload} seed {seed}: {out['failed']} of "
                          f"{out['attempted']} requests failed")
                    failed = True
                for name in metrics:
                    values[name].append(out["metrics"][name]["value"])
                print(f"{workload} seed {seed}: req_per_s "
                      f"{out['metrics']['req_per_s']['value']:.1f}", file=sys.stderr)
            sets.append(values)
        print(f"\n{workload} ({args.seeds} seeds x {args.sets} set(s), {args.seconds}s runs)")
        print(f"  {'metric':20s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
        for name, m in metrics.items():
            for i, values in enumerate(sets):
                s = spread(values[name])
                flag = ""
                if name != "setup_s" and s["spread"] > m["bound"]:
                    flag, failed = "OVER", True
                elif name != "setup_s" and s["spread"] > m["bound"] / 3:
                    flag = "wide"
                label = name if i == 0 else f"  (set {i + 1})"
                print(f"  {label:20s} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} "
                      f"{s['spread']:8.4f} {m['bound']:6.3f} {flag}")
            if len(sets) == 2:
                a, b = (statistics.median(v[name]) for v in sets)
                moved = worse_by(a, b, m["better"])
                flag = "MOVED" if moved > m["bound"] else ""
                failed = failed or bool(flag)
                print(f"  {'':20s} second median worse by {moved:+.4f} {flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
