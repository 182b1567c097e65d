"""Replay benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pod-tenants --seed 1 --seconds 20 --trace 0

A run sets up and replays independent inputs derived from ``--seed``,
one after another, until it has done the workload's fixed number of
inputs and ``--seconds`` have passed.  Each input is generated, converted
and given a freshly built scheme or cluster (timed as set-up), then
replayed once through the public replay call (timed alone).  The
simulated metrics are pooled over the fixed inputs, so they are exact
per seed; ``req_per_s`` and ``setup_s`` are medians over all inputs,
each scaled to the reference host by the ``calibrate()`` timings taken
before and after it (see calibration.py).  Every replay is checked (``workloads.check``); a replay that fails a
check counts all of its requests as failed.

``--trace 1`` replays each input untraced and then traced, and prints
the per-layer metrics instead (see tracing.py).  The last line of
standard output is the JSON result; progress goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from calibration import REFERENCE_S, calibrate

SRC = Path(__file__).resolve().parent.parent / "src"

#: Inputs a traced run replays at least (each twice: untraced, traced).
TRACED_INPUTS = 2

def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def counts(r: Any, span_s: float) -> Dict[str, Dict[str, Any]]:
    """Exact per-layer counts from the public result sections of one replay."""
    s = r.scheme_stats
    lookups = s.get("index_hits", 0) + s.get("index_misses", 0)
    util = r.utilisation.values()
    cs = r.cluster_stats or {}
    fabric = cs.get("fabric", {})
    directory = cs.get("directory") or {}
    jobs = (r.jobs_stats or {}).get("counters", {})
    return {
        "dedup.chunks_hashed": _metric(s.get("chunks_hashed", 0), "count"),
        "dedup.index_hit_ratio": _metric(s.get("index_hits", 0) / lookups if lookups else 0.0, "ratio"),
        "dedup.index_evictions": _metric(s.get("cache_index_evictions", 0), "count"),
        "dedup.map_entries": _metric(s.get("map_entries", 0), "count"),
        "dedup.nvram_peak_bytes": _metric(s.get("nvram_peak_bytes", 0), "B"),
        "core.icache_ghost_hits": _metric(
            s.get("cache_ghost_index_hits_total", 0) + s.get("cache_ghost_read_hits_total", 0), "count"),
        "cache.read_hit_ratio": _metric(
            s["read_cache_hit_blocks"] / s["read_blocks"] if s["read_blocks"] else 0.0, "ratio"),
        "storage.disk_ops": _metric(sum(u["ops"] for u in util), "count"),
        "storage.disk_util_max": _metric(max(u["busy_time"] for u in util) / span_s, "ratio"),
        "cluster.directory_lookups": _metric(directory.get("lookups", 0), "count"),
        "cluster.rpcs": _metric(fabric.get("rpcs", 0), "count"),
        "cluster.net_bytes": _metric(fabric.get("bytes_moved", 0), "B"),
        "cluster.net_busy_sim_s": _metric(fabric.get("busy_time_total", 0.0), "s"),
        "cluster.remote_duplicate_blocks": _metric(cs.get("remote_duplicate_blocks", 0), "count"),
        "cluster.gc_reclaimed_blocks": _metric(
            (directory.get("gc") or {}).get("gc_reclaimed_blocks", 0), "count"),
        "jobs.steps_committed": _metric(jobs.get("steps_committed", 0), "count"),
        "jobs.step_retries": _metric(jobs.get("step_retries", 0), "count"),
        "jobs.renewals": _metric(jobs.get("renewals", 0), "count"),
    }


class Run:
    """One benchmark run: set-ups, timed replays, checks."""

    def __init__(self, workload: str, seed: int, scale: Optional[float] = None) -> None:
        t0 = time.perf_counter()
        import workloads  # the repository is imported here

        self.import_s = time.perf_counter() - t0
        if workload not in workloads.WORKLOADS:
            raise SystemExit(f"unknown workload {workload!r}; have {sorted(workloads.WORKLOADS)}")
        self.wl = workloads
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.scale = scale
        self.setup_s: List[float] = []
        self.phases: List[Dict[str, float]] = []
        self.pool = workloads.SimPool()
        self.counts: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: Raw replay rates, one per input.
        self.rates: List[float] = []
        #: ``calibrate()`` timings: one before the first set-up and one
        #: after each input's replays, so input ``i`` lies between
        #: calibrations ``i`` and ``i + 1``.
        self.calibrations: List[float] = [calibrate()]

    def speeds(self) -> List[float]:
        """Host speed relative to the reference host, per input."""
        cal = self.calibrations
        return [2 * REFERENCE_S / (a + b) for a, b in zip(cal, cal[1:])]

    def setup(self, index: int) -> Any:
        """Build input ``index`` of this run's seed, timed."""
        gc.collect()
        t0 = time.perf_counter()
        inputs = self.workload.input(self.seed, index, self.scale)
        self.setup_s.append(time.perf_counter() - t0)
        self.phases.append(inputs.phases)
        return inputs

    def replay(self, inputs: Any, pool: bool, tracer: Any = None) -> float:
        """One checked replay of ``inputs`` on a fresh system; its seconds."""
        system = inputs.fresh_system()
        gc.collect()
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = inputs.replay(system)
            dt = time.perf_counter() - t0
        errors = self.wl.check(result, inputs)
        if pool:
            self.pool.add(result)
        if not self.counts:
            self.counts = counts(result, inputs.span_s)
        self.attempted += inputs.total_requests
        if errors:
            self.failed += inputs.total_requests
            self.errors.extend(errors)
        return dt

    def end_to_end(self) -> Dict[str, Dict[str, Any]]:
        speeds = self.speeds()
        rates = [r / v for r, v in zip(self.rates, speeds)]
        setups = [t * v for t, v in zip(self.setup_s, speeds)]
        out = {
            "req_per_s": _metric(statistics.median(rates), "req/s"),
            "setup_s": _metric(self.import_s * speeds[0] + statistics.median(setups), "s"),
            "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "ok_frac": _metric(1.0 - self.failed / self.attempted, "fraction"),
        }
        for name, value in self.pool.metrics().items():
            unit = "ms" if name.endswith("_ms") else ("%" if name.endswith("_pct") else "blocks")
            out[name] = _metric(value, unit)
        return out

    def per_layer(self, pairs: List[Tuple[int, float, float, Dict[str, float]]]) -> Dict[str, Dict[str, Any]]:
        """``pairs`` holds (requests, untraced s, traced s, layer self s) per input."""
        # The breakdown of the median traced replay, so that its layer
        # self times and the driver residual sum to its duration.
        n, _, traced_s, layers = sorted(pairs, key=lambda p: p[2])[(len(pairs) - 1) // 2]
        out = {
            f"traces.{phase}_s": _metric(statistics.median(p[phase] for p in self.phases), "s")
            for phase in ("generate", "clone", "columnar")
        }
        for layer, seconds in layers.items():
            out[f"{layer}_s"] = _metric(seconds, "s")
        out["sim.driver_self_s"] = _metric(traced_s - sum(layers.values()), "s")
        out["trace.replay_s"] = _metric(traced_s, "s")
        out["trace.overhead_pct"] = _metric(
            statistics.median((t / u - 1.0) * 100.0 for _, u, t, _ in pairs), "%")
        out["baselines.plan_us_per_req"] = _metric(layers["baselines.plan"] / n * 1e6, "us")
        out["host.speed"] = _metric(statistics.median(self.speeds()), "ratio")
        out["host.raw_req_per_s"] = _metric(statistics.median(self.rates), "req/s")
        out.update(self.counts)
        return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: Optional[float] = None) -> Dict[str, Any]:
    """Run one workload and return the result object run.py prints."""
    run = Run(workload, seed, scale)
    minimum = TRACED_INPUTS if trace else run.workload.inputs
    pairs: List[Tuple[int, float, float, Dict[str, float]]] = []
    start = time.perf_counter()
    while len(run.setup_s) < minimum or time.perf_counter() - start < seconds:
        index = len(run.setup_s)
        inputs = run.setup(index)
        n = inputs.total_requests
        untraced_s = run.replay(inputs, pool=index < run.workload.inputs)
        run.rates.append(n / untraced_s)
        if trace:
            from tracing import LayerTracer

            tracer = LayerTracer()
            traced_s = run.replay(inputs, pool=False, tracer=tracer)
            pairs.append((n, untraced_s, traced_s, dict(tracer.self_s)))
        run.calibrations.append(calibrate())
        print(f"{workload} input {index}: {n} requests, {run.rates[-1]:.0f} req/s, "
              f"host speed {run.speeds()[-1]:.3f}", file=sys.stderr)
        inputs = None
    for err in sorted(set(run.errors)):
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.per_layer(pairs) if trace else run.end_to_end(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repository sources at {SRC}", file=sys.stderr)
        return 2
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
