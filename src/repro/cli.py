"""Command-line interface.

::

    python -m repro run --trace mail --scheme POD --scale 0.1
    python -m repro run --trace web-vm --scheme pod \
        --report-out r.json --trace-out t.jsonl --seed 7
    python -m repro run-multi --trace mail --trace web-vm --copies 3 \
        --scheme POD --scale 0.1
    python -m repro compare --trace homes --scale 0.1 --report-out all.json
    python -m repro stats r.json            # pretty-print one report
    python -m repro stats a.json b.json     # diff two reports
    python -m repro figures --only fig8,fig11 --scale 0.25
    python -m repro trace generate --trace web-vm --scale 0.05 --out w.trace
    python -m repro trace analyze w.trace
    python -m repro report --scale 0.25
    python -m repro run --trace mail --scheme POD --timeline 0.5 --spans \
        --slo examples/slo.json --report-out r.json
    python -m repro timeline render r.json
    python -m repro timeline export r.json --out metrics.txt
    python -m repro dash r.json --out dash.html

Everything the CLI does is also available as a library call; the CLI
is a thin argparse layer over :mod:`repro.experiments`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.metrics.report import render_table

#: figure-name -> driver attribute on repro.experiments.figures
FIGURES = {
    "table1": "table1_features",
    "table2": "table2_characteristics",
    "fig1": "fig1_redundancy_by_size",
    "fig2": "fig2_io_vs_capacity",
    "fig3": "fig3_partition_sweep",
    "fig8": "fig8_overall_response",
    "fig9": "fig9_read_write_split",
    "fig10": "fig10_capacity",
    "fig11": "fig11_write_reduction",
    "nvram": "nvram_overhead",
}


def _add_telemetry_args(p: argparse.ArgumentParser) -> None:
    """Telemetry flags shared by run / run-multi / run-cluster."""
    p.add_argument("--timeline", type=float, default=None, nargs="?",
                   const=1.0, metavar="SECONDS",
                   help="sample windowed telemetry (throughput, latency "
                   "percentiles, dedup/cache rates, queue depths) at this "
                   "window width in simulated seconds (bare flag: 1.0)")
    p.add_argument("--spans", action="store_true",
                   help="record causal spans through the request lifecycle "
                   "(admission, classify, remote lookup, disk, recovery)")
    p.add_argument("--slo", default=None, metavar="POLICY.json",
                   help="evaluate SLO objectives over the timeline windows "
                   "(JSON policy, see examples/slo.json; implies --timeline)")
    p.add_argument("--timeline-out", default=None, metavar="FILE.jsonl",
                   help="write the sampled timeline as JSON Lines "
                   "(requires --timeline or --slo)")
    p.add_argument("--spans-out", default=None, metavar="FILE.jsonl",
                   help="write completed spans as JSON Lines "
                   "(requires --spans)")


def _add_jobs_args(p: argparse.ArgumentParser) -> None:
    """Leased-job flags shared by run / run-multi / run-cluster."""
    p.add_argument("--jobs", default=None, nargs="?", const="",
                   metavar="CONFIG.json",
                   help="arm the leased background-job subsystem (workers, "
                   "lease policy, scrubber, admission; JSON, see "
                   "examples/jobs.json; bare flag: defaults)")
    p.add_argument("--scrub", action="store_true",
                   help="run a background scrubber job over the volume "
                   "(implies --jobs)")
    p.add_argument("--admission", default=None, metavar="RATE:BURST",
                   help="per-tenant token-bucket admission control in "
                   "blocks/s and burst blocks (implies --jobs)")


def build_parser() -> argparse.ArgumentParser:
    from repro.baselines.registry import DEFAULT_REGISTRY

    scheme_help = "scheme name or alias, case-insensitive: " + ", ".join(
        DEFAULT_REGISTRY.names()
    )
    parser = argparse.ArgumentParser(
        prog="repro",
        description="POD (IPDPS'14) reproduction: trace-driven dedup experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replay one trace through one scheme")
    run.add_argument("--trace", required=True, choices=["web-vm", "homes", "mail"])
    run.add_argument("--scheme", required=True, help=scheme_help)
    run.add_argument("--scale", type=float, default=0.1)
    run.add_argument("--index-fraction", type=float, default=None,
                     help="fixed index-cache share (non-POD schemes)")
    run.add_argument("--failed-disk", type=int, default=None,
                     help="run the RAID-5 array degraded with this member failed")
    run.add_argument("--raid", choices=["raid5", "raid0", "single"], default="raid5")
    run.add_argument("--ndisks", type=int, default=None,
                     help="member disks (default 4 for raid5/raid0, 1 for single)")
    run.add_argument("--seed", type=int, default=None,
                     help="trace-generator seed (recorded in the run report)")
    run.add_argument("--trace-level", choices=["off", "summary", "request", "chunk"],
                     default=None,
                     help="event-recording verbosity (default: request when "
                     "--trace-out is given, off otherwise)")
    run.add_argument("--trace-out", default=None, metavar="FILE.jsonl",
                     help="write the recorded simulation events as JSON Lines")
    run.add_argument("--report-out", default=None, metavar="FILE.json",
                     help="write the versioned machine-readable run report")
    run.add_argument("--check-invariants", action="store_true",
                     help="debug mode: validate every POD invariant "
                     "(Map/Index tables, iCache budgets, NVRAM model) "
                     "periodically during the replay; fails loudly on the "
                     "first violation and never changes simulated times")
    run.add_argument("--faults", default=None, metavar="PLAN.json",
                     help="arm a deterministic fault plan (JSON, see "
                     "docs/robustness.md and examples/faults.json)")
    run.add_argument("--fault-seed", type=int, default=None, metavar="N",
                     help="override the fault plan's RNG seed "
                     "(requires --faults)")
    run.add_argument("--chunking", default=None, metavar="[ALGO:]MIN:AVG:MAX",
                     help="enable content-defined chunking with the given "
                          "chunk bounds in 4 KB blocks (AVG must be a power "
                          "of two); ALGO is 'gear' or 'rabin', and a bare "
                          "'gear'/'rabin' takes the default bounds (2:4:16)")
    run.add_argument("--sanitize-every", type=int, default=1000, metavar="N",
                     help="structural-check cadence in requests "
                     "(with --check-invariants; default 1000)")
    _add_telemetry_args(run)
    _add_jobs_args(run)

    multi = sub.add_parser(
        "run-multi",
        help="replay several tenant volumes through one shared dedup domain",
    )
    multi.add_argument("--trace", action="append", required=True, dest="traces",
                       choices=["web-vm", "homes", "mail"], metavar="NAME",
                       help="base trace family (repeatable); each family is "
                       "expanded into --copies tenant volumes")
    multi.add_argument("--scheme", default="POD", help=scheme_help)
    multi.add_argument("--copies", type=int, default=2,
                       help="tenant clones per base trace (default 2)")
    multi.add_argument("--divergence", type=float, default=0.15,
                       help="fraction of each clone's content privatised "
                       "away from the golden image (default 0.15)")
    multi.add_argument("--skew", type=float, default=0.5,
                       help="per-tenant arrival-rate skew exponent; tenant k "
                       "runs at (k+1)^-skew of the base rate (default 0.5)")
    multi.add_argument("--scale", type=float, default=0.1)
    multi.add_argument("--seed", type=int, default=None,
                       help="trace-generator seed (recorded in the report)")
    multi.add_argument("--report-out", default=None, metavar="FILE.json",
                       help="write the run report with the per-volume section")
    multi.add_argument("--check-invariants", action="store_true",
                       help="validate every POD invariant during the replay")
    multi.add_argument("--faults", default=None, metavar="PLAN.json",
                       help="arm a deterministic fault plan (JSON)")
    multi.add_argument("--fault-seed", type=int, default=None, metavar="N",
                       help="override the fault plan's RNG seed "
                       "(requires --faults)")
    multi.add_argument("--chunking", default=None, metavar="MIN:AVG:MAX",
                       help="enable content-defined chunking (see 'run')")
    multi.add_argument("--sanitize-every", type=int, default=1000, metavar="N",
                       help="structural-check cadence in requests "
                       "(with --check-invariants; default 1000)")
    _add_telemetry_args(multi)
    _add_jobs_args(multi)

    cluster = sub.add_parser(
        "run-cluster",
        help="replay the tenant volumes across a sharded multi-node cluster",
    )
    cluster.add_argument("--trace", action="append", required=True, dest="traces",
                         choices=["web-vm", "homes", "mail"], metavar="NAME",
                         help="base trace family (repeatable); each family is "
                         "expanded into --copies tenant volumes")
    cluster.add_argument("--scheme", default="POD", help=scheme_help)
    cluster.add_argument("--nodes", type=int, default=2,
                         help="POD nodes in the cluster (default 2); volumes "
                         "are assigned round-robin")
    cluster.add_argument("--copies", type=int, default=2,
                         help="tenant clones per base trace (default 2)")
    cluster.add_argument("--divergence", type=float, default=0.15,
                         help="fraction of each clone's content privatised "
                         "away from the golden image (default 0.15)")
    cluster.add_argument("--skew", type=float, default=0.5,
                         help="per-tenant arrival-rate skew exponent "
                         "(default 0.5)")
    cluster.add_argument("--scale", type=float, default=0.1)
    cluster.add_argument("--seed", type=int, default=None,
                         help="trace-generator seed (recorded in the report)")
    cluster.add_argument("--vnodes", type=int, default=None,
                         help="virtual nodes per member on the hash ring "
                         "(default 64)")
    cluster.add_argument("--net-latency", type=float, default=None,
                         metavar="SECONDS",
                         help="one-way network latency (default 100e-6)")
    cluster.add_argument("--net-bandwidth", type=float, default=None,
                         metavar="BYTES_PER_S",
                         help="per-link bandwidth (default 1e9)")
    cluster.add_argument("--rebalance-at", type=float, default=None,
                         metavar="SECONDS",
                         help="trigger a membership change at this simulated "
                         "time")
    cluster.add_argument("--rebalance-add", type=int, default=0, metavar="N",
                         help="nodes to add at --rebalance-at (default 0)")
    cluster.add_argument("--rebalance-remove", type=int, default=None,
                         metavar="NODE",
                         help="node id to retire at --rebalance-at")
    cluster.add_argument("--migrate-batch", type=int, default=256, metavar="N",
                         help="shard entries migrated per background batch "
                         "(default 256)")
    cluster.add_argument("--migrate-interval", type=float, default=0.01,
                         metavar="SECONDS",
                         help="pause between migration batches (default 0.01)")
    cluster.add_argument("--fail-node", type=int, default=None, metavar="NODE",
                         help="degrade this node's RAID-5 array mid-run and "
                         "pace a rebuild (needs --fail-node-at)")
    cluster.add_argument("--fail-node-at", type=float, default=None,
                         metavar="SECONDS",
                         help="simulated time of the node failure")
    cluster.add_argument("--fail-slow", action="append", default=None,
                         metavar="DISK:START:END:MULT", dest="fail_slow",
                         help="fail-slow window on a cluster disk (global "
                         "disk id = node * ndisks + member); repeatable. "
                         "A window overlapping a leased rebuild exercises "
                         "stale-lease recovery")
    cluster.add_argument("--replication", type=int, default=None, metavar="R",
                         help="arm the replicated fingerprint directory with "
                         "R-way replica placement (R=1 pins the legacy "
                         "single-copy arithmetic)")
    cluster.add_argument("--consistency", choices=["one", "quorum", "all"],
                         default="quorum",
                         help="directory read/write consistency level "
                         "(with --replication; default quorum)")
    cluster.add_argument("--gc", nargs="?", const="online",
                         choices=["online", "stw"], default=None,
                         help="refcount garbage collection over the "
                         "replicated directory: 'online' (leased job; "
                         "implies --jobs) or 'stw' (stop-the-world "
                         "baseline). Implies --replication 1 if unset")
    cluster.add_argument("--gc-start", type=float, default=0.0,
                         metavar="SECONDS",
                         help="earliest simulated time GC may run "
                         "(default 0)")
    cluster.add_argument("--gc-interval", type=float, default=0.05,
                         metavar="SECONDS",
                         help="online GC: pause between job steps "
                         "(default 0.05)")
    cluster.add_argument("--gc-batch", type=int, default=64, metavar="N",
                         help="online GC: decrement intents per step "
                         "(default 64)")
    cluster.add_argument("--kill-metadata-node", default=None,
                         metavar="NODE:SECONDS", dest="kill_metadata_node",
                         help="kill one node's directory replica at a "
                         "simulated time (data plane unaffected); degraded "
                         "lookups fall back to surviving replicas and "
                         "trigger read repair")
    cluster.add_argument("--verify-content", action="store_true",
                         help="arm a per-node content oracle that checks "
                         "every read against the write history")
    cluster.add_argument("--check-invariants", action="store_true",
                         help="validate every POD invariant on every node "
                         "during the replay")
    cluster.add_argument("--sanitize-every", type=int, default=1000, metavar="N",
                         help="structural-check cadence in requests "
                         "(with --check-invariants; default 1000)")
    cluster.add_argument("--report-out", default=None, metavar="FILE.json",
                         help="write the run report with per-node and "
                         "cluster sections")
    _add_telemetry_args(cluster)
    _add_jobs_args(cluster)

    compare = sub.add_parser("compare", help="replay one trace through every scheme")
    compare.add_argument("--trace", required=True, choices=["web-vm", "homes", "mail"])
    compare.add_argument("--scale", type=float, default=0.1)
    compare.add_argument("--seed", type=int, default=None,
                         help="trace-generator seed (recorded in the report)")
    compare.add_argument("--report-out", default=None, metavar="FILE.json",
                         help="write a compare report bundling every run report")
    compare.add_argument("--check-invariants", action="store_true",
                         help="validate every POD invariant during each replay")
    compare.add_argument("--faults", default=None, metavar="PLAN.json",
                         help="arm the same deterministic fault plan against "
                         "every scheme (JSON)")
    compare.add_argument("--fault-seed", type=int, default=None, metavar="N",
                         help="override the fault plan's RNG seed "
                         "(requires --faults)")

    lint = sub.add_parser(
        "lint", help="run the POD determinism linter (POD001..POD007; "
        "--flow adds the dataflow tier POD008..POD012)"
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--flow", action="store_true",
                      help="run the whole-program dataflow tier too")
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text")
    lint.add_argument("--select", default=None, metavar="CODES",
                      help="comma list of rule codes to enable")
    lint.add_argument("--fix", action="store_true",
                      help="apply mechanical fixes, then re-lint")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="suppression baseline to filter findings against")
    lint.add_argument("--write-baseline", default=None, metavar="FILE",
                      help="write current findings as the new baseline")
    lint.add_argument("--dump-summaries", action="store_true",
                      help="print interprocedural call summaries and exit")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")

    stats = sub.add_parser(
        "stats", help="pretty-print a run report, or diff two of them"
    )
    stats.add_argument("paths", nargs="+", metavar="REPORT.json",
                       help="one report to render, or two run reports to diff")
    stats.add_argument("--buckets", action="store_true",
                       help="also dump non-zero histogram buckets")

    figures_cmd = sub.add_parser("figures", help="regenerate the paper's tables/figures")
    figures_cmd.add_argument("--only", default=None,
                             help=f"comma list from: {','.join(FIGURES)}")
    figures_cmd.add_argument("--scale", type=float, default=0.25)

    trace = sub.add_parser("trace", help="generate or analyse trace files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    gen = trace_sub.add_parser("generate", help="write a synthetic trace file")
    gen.add_argument("--trace", required=True, choices=["web-vm", "homes", "mail"])
    gen.add_argument("--scale", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)
    ana = trace_sub.add_parser("analyze", help="Table-II/Fig-1/Fig-2 stats of a trace file")
    ana.add_argument("path")

    timeline = sub.add_parser(
        "timeline", help="render, diff or export a sampled telemetry timeline"
    )
    timeline_sub = timeline.add_subparsers(dest="timeline_command", required=True)
    tl_render = timeline_sub.add_parser(
        "render", help="pretty-print the per-window series"
    )
    tl_render.add_argument("path", metavar="TIMELINE",
                           help="run report (JSON), bare timeline document, "
                           "or timeline JSONL file")
    tl_render.add_argument("--limit", type=int, default=40, metavar="N",
                           help="windows to show (default 40; 0 for all)")
    tl_diff = timeline_sub.add_parser(
        "diff", help="diff two timelines window by window"
    )
    tl_diff.add_argument("paths", nargs=2, metavar="TIMELINE",
                         help="two timeline files (any loadable form)")
    tl_diff.add_argument("--limit", type=int, default=20, metavar="N",
                         help="differing windows to show (default 20)")
    tl_export = timeline_sub.add_parser(
        "export", help="export the timeline as OpenMetrics text"
    )
    tl_export.add_argument("path", metavar="TIMELINE")
    tl_export.add_argument("--out", default=None, metavar="FILE",
                           help="output file (default: stdout)")
    tl_export.add_argument("--prefix", default="pod",
                           help="metric-family name prefix (default pod)")

    dash = sub.add_parser(
        "dash", help="render a self-contained HTML dashboard from a run report"
    )
    dash.add_argument("path", metavar="REPORT.json",
                      help="run report written with --report-out and --timeline")
    dash.add_argument("--out", default="dash.html", metavar="FILE.html",
                      help="output file (default dash.html)")

    report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report.add_argument("--scale", type=float, default=0.25)

    export = sub.add_parser("export", help="write every figure's data as CSV/JSON")
    export.add_argument("--out", default="figures_out")
    export.add_argument("--scale", type=float, default=0.25)

    return parser


def _print_result(result) -> None:
    s = result.summary()
    rows = [
        ["requests measured", s["requests"]],
        ["mean response (ms)", s["mean_response"] * 1e3],
        ["read mean (ms)", s["read_mean_response"] * 1e3],
        ["write mean (ms)", s["write_mean_response"] * 1e3],
        ["p95 (ms)", s["p95_response"] * 1e3],
        ["write requests removed", f"{result.removed_write_pct:.1f}%"],
        ["capacity (blocks)", result.capacity_blocks],
        ["map entries", result.scheme_stats["map_entries"]],
        ["NVRAM peak (bytes)", result.scheme_stats["nvram_peak_bytes"]],
    ]
    print(render_table(f"{result.scheme_name} on {result.trace_name}", ["metric", "value"], rows))


def _chunking_config(args: argparse.Namespace):
    """Parse ``--chunking`` into a :class:`ChunkingConfig`, if given.

    Accepts ``gear`` or ``rabin`` (default bounds) or
    ``[ALGO:]MIN:AVG:MAX`` in 4 KB blocks.
    """
    from repro.dedup.chunking import ChunkingConfig
    from repro.errors import ConfigError

    spec = getattr(args, "chunking", None)
    if spec is None:
        return None
    if spec in ("gear", "rabin"):
        return ChunkingConfig(algorithm=spec)
    parts = spec.split(":")
    algorithm = "gear"
    if parts and parts[0] in ("gear", "rabin"):
        algorithm = parts[0]
        parts = parts[1:]
    if len(parts) != 3:
        raise ConfigError(
            f"--chunking expects 'gear', 'rabin' or [ALGO:]MIN:AVG:MAX, "
            f"got {spec!r}"
        )
    try:
        lo, avg, hi = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(
            f"--chunking bounds must be integers, got {spec!r}"
        ) from None
    return ChunkingConfig(
        min_blocks=lo, avg_blocks=avg, max_blocks=hi, algorithm=algorithm
    )


def _fault_plan(args: argparse.Namespace):
    """Load the ``--faults`` plan, if any (``--fault-seed`` needs it)."""
    from repro.errors import ConfigError
    from repro.faults import FaultPlan

    if getattr(args, "faults", None) is None:
        if getattr(args, "fault_seed", None) is not None:
            raise ConfigError("--fault-seed requires --faults")
        return None
    return FaultPlan.load(args.faults)


def _print_invariants(result) -> None:
    """One line for a run with ``--check-invariants`` (none otherwise)."""
    if result.sanitizer is None:
        return
    s = result.sanitizer.summary()
    print(f"invariants clean: {s['checks_run']} structural checks, "
          f"{s['decisions_validated']} dedupe decisions validated")


def _print_fault_summary(result) -> None:
    """One-line fault verdict after a replay (full detail in reports)."""
    stats = getattr(result, "fault_stats", None)
    if not stats:
        return
    counters = stats.get("counters", {})
    oracle = stats.get("oracle", {})
    injected = sum(
        v for k, v in counters.items()
        if k in ("lse_injected", "member_failures", "nvram_losses",
                 "index_corruptions", "fail_slow_windows")
    )
    print(f"faults: seed={stats.get('seed')} injected={injected} "
          f"recoveries={stats.get('recovery_latency', {}).get('count', 0)} "
          f"oracle: {oracle.get('blocks_checked', 0)} blocks checked, "
          f"{oracle.get('mismatches', 0)} mismatches, "
          f"{oracle.get('at_risk_reads', 0)} at-risk reads")


def _jobs_config(args: argparse.Namespace):
    """Resolve the leased-job flags into a JobsConfig (or None).

    ``--scrub`` and ``--admission`` imply ``--jobs`` so the common
    cases need no config file; an explicit ``--jobs CONFIG.json``
    provides the full policy and the convenience flags overlay it.
    """
    import dataclasses

    from repro.errors import ConfigError
    from repro.jobs import AdmissionSpec, JobsConfig, ScrubberSpec

    jobs = getattr(args, "jobs", None)
    scrub = getattr(args, "scrub", False)
    admission = getattr(args, "admission", None)
    if jobs is None and not scrub and admission is None:
        return None
    config = JobsConfig.load(jobs) if jobs else JobsConfig()
    if scrub and config.scrub is None:
        config = dataclasses.replace(config, scrub=ScrubberSpec())
    if admission is not None:
        parts = admission.split(":")
        if len(parts) != 2:
            raise ConfigError(
                f"--admission expects RATE:BURST, got {admission!r}"
            )
        try:
            rate, burst = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(
                f"--admission expects numeric RATE:BURST, got {admission!r}"
            )
        config = dataclasses.replace(
            config,
            admission=AdmissionSpec(rate_blocks=rate, burst_blocks=burst),
        )
    return config


def _directory_config(args: argparse.Namespace):
    """Resolve the replicated-directory flags (or None = legacy path).

    ``--gc`` and ``--kill-metadata-node`` imply ``--replication 1`` so
    the single-knob cases work; ``--gc online`` additionally implies
    ``--jobs`` (handled by the caller).
    """
    from repro.cluster.directory import (
        Consistency,
        DirectoryConfig,
        GcSpec,
        KillSpec,
    )
    from repro.errors import ConfigError

    replication = getattr(args, "replication", None)
    gc_mode = getattr(args, "gc", None)
    kill = getattr(args, "kill_metadata_node", None)
    if replication is None and gc_mode is None and kill is None:
        return None
    gc = None
    if gc_mode is not None:
        gc = GcSpec(
            start=args.gc_start,
            interval=args.gc_interval,
            batch=args.gc_batch,
            mode=gc_mode,
        )
    kill_spec = None
    if kill is not None:
        parts = kill.split(":")
        if len(parts) != 2:
            raise ConfigError(
                f"--kill-metadata-node expects NODE:SECONDS, got {kill!r}"
            )
        try:
            kill_spec = KillSpec(node=int(parts[0]), time=float(parts[1]))
        except ValueError:
            raise ConfigError(
                f"--kill-metadata-node expects numeric NODE:SECONDS, "
                f"got {kill!r}"
            ) from None
    return DirectoryConfig(
        replication=replication if replication is not None else 1,
        consistency=Consistency(args.consistency),
        gc=gc,
        kill=kill_spec,
    )


def _print_jobs_summary(result) -> None:
    """One-line leased-jobs digest after a run (when armed)."""
    stats = getattr(result, "jobs_stats", None)
    if not stats:
        return
    c = stats.get("counters", {})
    ledger = stats.get("oracle", {})
    print(f"jobs: {c.get('jobs_completed', 0)}/{c.get('jobs_submitted', 0)} "
          f"completed, {c.get('claims', 0)} claims "
          f"({c.get('stale_lease_reclaims', 0)} stale re-claims), "
          f"{c.get('steps_committed', 0)} steps committed "
          f"({c.get('fenced_commits', 0)} fenced), "
          f"ledger violations {len(ledger.get('violations', []))}")
    adm = stats.get("admission")
    if adm:
        print(f"admission: {adm.get('requests_admitted', 0)} admitted, "
              f"{adm.get('requests_throttled', 0)} throttled, "
              f"{adm.get('throttle_delay_total', 0.0):.3f}s total delay")


def _effective_trace_level(args: argparse.Namespace) -> str:
    """Resolve the recording verbosity from the CLI flags.

    Explicit ``--trace-level`` wins; otherwise ``--trace-out`` implies
    ``request`` (a trace file with no events would be useless) and the
    default is ``off`` (no recording cost at all).
    """
    from repro.obs import TraceLevel

    if getattr(args, "trace_level", None) is not None:
        return TraceLevel.parse(args.trace_level)
    if getattr(args, "trace_out", None) is not None:
        return TraceLevel.REQUEST
    return TraceLevel.OFF


def _telemetry_config(args: argparse.Namespace) -> dict:
    """ReplayConfig telemetry kwargs from the shared CLI flags."""
    from repro.errors import ConfigError
    from repro.obs import SloPolicy, TimelineConfig

    kwargs: dict = {}
    if getattr(args, "timeline", None) is not None:
        kwargs["timeline"] = TimelineConfig(window=args.timeline)
    if getattr(args, "spans", False):
        kwargs["spans"] = True
    if getattr(args, "slo", None) is not None:
        kwargs["slo"] = SloPolicy.load(args.slo)
    if getattr(args, "timeline_out", None) is not None and not (
        "timeline" in kwargs or "slo" in kwargs
    ):
        raise ConfigError("--timeline-out requires --timeline or --slo")
    if getattr(args, "spans_out", None) is not None and "spans" not in kwargs:
        raise ConfigError("--spans-out requires --spans")
    return kwargs


def _print_telemetry(result, args: argparse.Namespace) -> None:
    """Post-run telemetry summary + JSONL outputs (run/run-multi/run-cluster)."""
    timeline = getattr(result, "timeline", None)
    if timeline is not None:
        doc = timeline.as_dict()
        print(f"timeline: {doc['windows_total']} windows of "
              f"{doc['window']:.4g}s (t_end {doc['t_end']:.3f})")
        if getattr(args, "timeline_out", None) is not None:
            lines = timeline.write_jsonl(args.timeline_out)
            print(f"wrote {args.timeline_out}: {lines - 1} windows")
    spans = getattr(result, "spans", None)
    if spans is not None:
        s = spans.summary()
        print(f"spans: {s['spans']} recorded ({s['dropped']} dropped, "
              f"{s['open']} left open)")
        if getattr(args, "spans_out", None) is not None:
            lines = spans.write_jsonl(args.spans_out)
            print(f"wrote {args.spans_out}: {lines - 1} spans")
    slo = getattr(result, "slo_stats", None)
    if slo is not None:
        worst = max((o["worst_burn"] for o in slo["objectives"]), default=0.0)
        print(f"slo: {len(slo['objectives'])} objectives over "
              f"{slo['windows_evaluated']} windows, "
              f"{slo['violations_total']} violation windows, "
              f"worst burn rate {worst:.2f}")


def cmd_run(args: argparse.Namespace) -> int:
    import time

    from repro.experiments import runner
    from repro.obs import TraceLevel, TraceRecorder, build_run_report, write_report
    from repro.sim.replay import ReplayConfig
    from repro.storage.raid import RaidLevel

    overrides = {}
    if args.index_fraction is not None:
        overrides["index_fraction"] = args.index_fraction
    chunking = _chunking_config(args)
    if chunking is not None:
        overrides["chunking"] = chunking
    level = {
        "raid5": RaidLevel.RAID5,
        "raid0": RaidLevel.RAID0,
        "single": RaidLevel.SINGLE,
    }[args.raid]
    ndisks = args.ndisks if args.ndisks is not None else (1 if level is RaidLevel.SINGLE else 4)
    telemetry = _telemetry_config(args)
    jobs_config = _jobs_config(args)
    replay_config = ReplayConfig(
        raid_level=level,
        ndisks=ndisks,
        failed_disk=args.failed_disk,
        check_invariants=args.check_invariants,
        sanitize_every=args.sanitize_every,
        faults=_fault_plan(args),
        fault_seed=args.fault_seed,
        jobs=jobs_config,
        **telemetry,
    )

    observed = (
        args.seed is not None
        or args.trace_level is not None
        or args.trace_out is not None
        or args.report_out is not None
        or bool(telemetry)
    )
    if not observed:
        # Plain run: share the memoised fast path with the figure benches.
        result = runner.run_single(
            args.trace, args.scheme, scale=args.scale,
            replay_config=replay_config, **overrides,
        )
        _print_result(result)
        _print_invariants(result)
        _print_fault_summary(result)
        _print_jobs_summary(result)
        return 0

    trace_level = _effective_trace_level(args)
    recorder = (
        TraceRecorder(level=trace_level)
        if (trace_level > TraceLevel.OFF or args.trace_out is not None)
        else None
    )
    t0 = time.perf_counter()
    result = runner.run_observed(
        args.trace, args.scheme, scale=args.scale, seed=args.seed,
        replay_config=replay_config, recorder=recorder, **overrides,
    )
    wall = time.perf_counter() - t0
    _print_result(result)

    _print_invariants(result)
    _print_fault_summary(result)
    _print_jobs_summary(result)
    _print_telemetry(result, args)
    if args.trace_out is not None:
        lines = recorder.write_jsonl(args.trace_out)
        print(f"wrote {args.trace_out}: {lines - 1} events "
              f"(level {trace_level.name.lower()}, {recorder.dropped} dropped)")
    if args.report_out is not None:
        config_doc = {
            "raid": args.raid,
            "ndisks": ndisks,
            "failed_disk": args.failed_disk,
            "index_fraction": args.index_fraction,
            "faults": args.faults,
            "fault_seed": args.fault_seed,
        }
        if jobs_config is not None:
            config_doc["jobs"] = jobs_config.as_dict()
        report = build_run_report(
            result,
            seed=args.seed,
            scale=args.scale,
            trace_level=trace_level.name.lower(),
            recorder=recorder,
            config=config_doc,
            overhead={"replay_wall_s": wall},
        )
        write_report(report, args.report_out)
        print(f"wrote {args.report_out}")
    return 0


def cmd_run_multi(args: argparse.Namespace) -> int:
    from repro.experiments import runner
    from repro.sim.replay import ReplayConfig

    jobs_config = _jobs_config(args)
    replay_config = ReplayConfig(
        check_invariants=args.check_invariants,
        sanitize_every=args.sanitize_every,
        faults=_fault_plan(args),
        fault_seed=args.fault_seed,
        jobs=jobs_config,
        **_telemetry_config(args),
    )
    overrides = {}
    chunking = _chunking_config(args)
    if chunking is not None:
        overrides["chunking"] = chunking
    result = runner.run_multi(
        args.traces,
        args.scheme,
        copies=args.copies,
        scale=args.scale,
        seed=args.seed,
        divergence=args.divergence,
        arrival_skew=args.skew,
        replay_config=replay_config,
        **overrides,
    )
    _print_result(result)
    print()
    print(render_table(
        f"per-volume breakdown ({len(result.volumes)} volumes, "
        f"shared dedup domain)",
        ["vol", "name", "reqs", "mean ms", "wr elim blk",
         "x-vol dedup", "intra dedup"],
        [
            [
                v["volume_id"],
                v["name"],
                v.get("requests", 0),
                f"{v.get('mean_response', 0.0) * 1e3:.3f}",
                v.get("writes_eliminated_blocks", 0),
                v.get("cross_volume_deduped_blocks", 0),
                v.get("intra_volume_deduped_blocks", 0),
            ]
            for v in result.volumes
        ],
    ))
    _print_invariants(result)
    _print_fault_summary(result)
    _print_jobs_summary(result)
    _print_telemetry(result, args)
    if args.report_out is not None:
        from repro.obs import build_run_report, write_report

        config_doc = {
            "traces": list(args.traces),
            "copies": args.copies,
            "divergence": args.divergence,
            "arrival_skew": args.skew,
            "faults": args.faults,
            "fault_seed": args.fault_seed,
        }
        if jobs_config is not None:
            config_doc["jobs"] = jobs_config.as_dict()
        report = build_run_report(
            result,
            seed=args.seed,
            scale=args.scale,
            config=config_doc,
        )
        write_report(report, args.report_out)
        print(f"wrote {args.report_out}")
    return 0


def cmd_run_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterConfig, NetworkModel, RebalanceSpec
    from repro.errors import ConfigError
    from repro.experiments import runner
    from repro.faults import FailSlowSpec, NodeFailureSpec
    from repro.sim.replay import ReplayConfig

    net_kwargs = {}
    if args.net_latency is not None:
        net_kwargs["latency"] = args.net_latency
    if args.net_bandwidth is not None:
        net_kwargs["bandwidth"] = args.net_bandwidth
    rebalance = None
    if args.rebalance_at is not None:
        rebalance = RebalanceSpec(
            time=args.rebalance_at,
            add_nodes=args.rebalance_add,
            remove_node=args.rebalance_remove,
            entries_per_batch=args.migrate_batch,
            interval=args.migrate_interval,
        )
    elif args.rebalance_add or args.rebalance_remove is not None:
        raise ConfigError(
            "--rebalance-add/--rebalance-remove require --rebalance-at"
        )
    node_failure = None
    if args.fail_node is not None:
        if args.fail_node_at is None:
            raise ConfigError("--fail-node requires --fail-node-at")
        node_failure = NodeFailureSpec(node=args.fail_node, time=args.fail_node_at)
    elif args.fail_node_at is not None:
        raise ConfigError("--fail-node-at requires --fail-node")
    fail_slow = []
    for spec_str in args.fail_slow or []:
        parts = spec_str.split(":")
        if len(parts) != 4:
            raise ConfigError(
                f"--fail-slow expects DISK:START:END:MULT, got {spec_str!r}"
            )
        try:
            fail_slow.append(FailSlowSpec(
                disk=int(parts[0]),
                start=float(parts[1]),
                end=float(parts[2]),
                multiplier=float(parts[3]),
            ))
        except ValueError:
            raise ConfigError(
                f"--fail-slow expects numeric DISK:START:END:MULT, "
                f"got {spec_str!r}"
            )
    directory_config = _directory_config(args)
    cluster_kwargs = dict(
        net=NetworkModel(**net_kwargs),
        rebalance=rebalance,
        node_failure=node_failure,
        verify_content=args.verify_content,
    )
    if fail_slow:
        cluster_kwargs["fail_slow"] = tuple(fail_slow)
    if args.vnodes is not None:
        cluster_kwargs["vnodes"] = args.vnodes
    if directory_config is not None:
        cluster_kwargs["directory"] = directory_config
    cluster_config = ClusterConfig(**cluster_kwargs)
    jobs_config = _jobs_config(args)
    if (
        directory_config is not None
        and directory_config.gc is not None
        and directory_config.gc.mode == "online"
        and jobs_config is None
    ):
        # Online GC runs as a leased job: --gc implies --jobs.
        from repro.jobs import JobsConfig

        jobs_config = JobsConfig()
    replay_config = ReplayConfig(
        check_invariants=args.check_invariants,
        sanitize_every=args.sanitize_every,
        jobs=jobs_config,
        **_telemetry_config(args),
    )
    result = runner.run_cluster(
        args.traces,
        args.scheme,
        nodes=args.nodes,
        copies=args.copies,
        scale=args.scale,
        seed=args.seed,
        divergence=args.divergence,
        arrival_skew=args.skew,
        replay_config=replay_config,
        cluster_config=cluster_config,
    )
    _print_result(result)
    if result.nodes:
        print()
        print(render_table(
            f"per-node breakdown ({len(result.nodes)} nodes, "
            f"sharded fingerprint directory)",
            ["node", "name", "vols", "reqs", "mean ms", "wr elim",
             "remote lkp", "remote dup", "rebal miss"],
            [
                [
                    n["node_id"],
                    n["name"],
                    len(n.get("volumes", [])),
                    n.get("requests", n.get("requests_served", 0)),
                    f"{n.get('mean_response', 0.0) * 1e3:.3f}",
                    n.get("write_requests_removed", 0),
                    n.get("remote_lookups", 0),
                    n.get("remote_duplicate_blocks", 0),
                    n.get("rebalance_misses", 0),
                ]
                for n in result.nodes
            ],
        ))
    cs = result.cluster_stats
    if cs is not None:
        fabric = cs.get("fabric", {})
        print(f"cluster: {cs['nodes']} nodes, ring {cs['ring_members']}, "
              f"{cs['remote_lookups']} remote lookups, "
              f"{cs['remote_duplicate_blocks']} remote duplicate blocks, "
              f"fabric {fabric.get('rpcs', 0)} RPCs / "
              f"{fabric.get('bytes_moved', 0)} bytes")
        rb = cs.get("rebalance")
        if rb is not None:
            print(f"rebalance: moved {rb.get('entries_migrated', 0)} entries "
                  f"({rb.get('entries_superseded', 0)} superseded), "
                  f"{cs.get('rebalance_misses', 0)} directory misses")
        nf = cs.get("node_failure")
        if nf is not None:
            print(f"node failure: node {nf.get('node')} disk {nf.get('disk')} "
                  f"rebuild done={nf.get('done')} "
                  f"progress={nf.get('progress', 0.0):.2f}")
        dstats = cs.get("directory")
        if dstats is not None:
            print(f"directory: R={dstats.get('replication')} "
                  f"{dstats.get('consistency')}, "
                  f"{dstats.get('read_repairs', 0)} read repairs "
                  f"({dstats.get('repair_pushes', 0)} pushes), "
                  f"{dstats.get('degraded_lookups', 0)} degraded / "
                  f"{dstats.get('unavailable_lookups', 0)} unavailable lookups, "
                  f"{dstats.get('remote_refs_registered', 0)} remote refs, "
                  f"down={dstats.get('down_members', [])}")
            gcs = dstats.get("gc")
            if gcs is not None:
                print(f"gc[{gcs.get('mode')}]: "
                      f"{gcs.get('gc_reclaimed_blocks', 0)} blocks reclaimed, "
                      f"{gcs.get('decrements_applied', 0)} decrements applied, "
                      f"{gcs.get('gc_live_skips', 0)} live skips, "
                      f"{gcs.get('gc_pending_intents', 0)} pending intents, "
                      f"{gcs.get('journal_records', 0)} journal records")
        for oracle in cs.get("oracle", []):
            print(f"oracle node{oracle.get('node')}: "
                  f"{oracle.get('blocks_checked', 0)} blocks checked, "
                  f"{oracle.get('mismatches', 0)} mismatches")
    _print_invariants(result)
    _print_jobs_summary(result)
    _print_telemetry(result, args)
    if args.report_out is not None:
        from repro.obs import build_run_report, write_report

        config_doc = {
            "traces": list(args.traces),
            "nodes": args.nodes,
            "copies": args.copies,
            "divergence": args.divergence,
            "arrival_skew": args.skew,
            "vnodes": args.vnodes,
            "net_latency": args.net_latency,
            "net_bandwidth": args.net_bandwidth,
            "rebalance_at": args.rebalance_at,
            "rebalance_add": args.rebalance_add,
            "rebalance_remove": args.rebalance_remove,
            "fail_node": args.fail_node,
            "fail_node_at": args.fail_node_at,
        }
        if fail_slow:
            config_doc["fail_slow"] = list(args.fail_slow)
        if jobs_config is not None:
            config_doc["jobs"] = jobs_config.as_dict()
        if directory_config is not None:
            config_doc["replication"] = directory_config.replication
            config_doc["consistency"] = directory_config.consistency.value
            if directory_config.gc is not None:
                config_doc["gc"] = {
                    "mode": directory_config.gc.mode,
                    "start": directory_config.gc.start,
                    "interval": directory_config.gc.interval,
                    "batch": directory_config.gc.batch,
                }
            if directory_config.kill is not None:
                config_doc["kill_metadata_node"] = {
                    "node": directory_config.kill.node,
                    "time": directory_config.kill.time,
                }
        report = build_run_report(
            result,
            seed=args.seed,
            scale=args.scale,
            config=config_doc,
        )
        write_report(report, args.report_out)
        print(f"wrote {args.report_out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments import runner
    from repro.experiments.runner import PAPER_SCHEMES
    from repro.sim.replay import ReplayConfig

    observed = args.seed is not None or args.report_out is not None
    replay_config = ReplayConfig(
        check_invariants=args.check_invariants,
        faults=_fault_plan(args),
        fault_seed=args.fault_seed,
    )
    rows = []
    reports = []
    fault_rows = []
    for scheme in PAPER_SCHEMES:
        if observed:
            result = runner.run_observed(
                args.trace, scheme, scale=args.scale, seed=args.seed,
                replay_config=replay_config,
            )
        else:
            result = runner.run_single(
                args.trace, scheme, scale=args.scale,
                replay_config=replay_config,
            )
        rows.append(
            [
                scheme,
                result.metrics.overall_summary().mean * 1e3,
                result.metrics.read_summary().mean * 1e3,
                result.metrics.write_summary().mean * 1e3,
                f"{result.removed_write_pct:.1f}%",
                result.capacity_blocks,
            ]
        )
        if result.fault_stats is not None:
            oracle = result.fault_stats.get("oracle", {})
            fault_rows.append([
                scheme,
                result.fault_stats.get("recovery_latency", {}).get("count", 0),
                oracle.get("blocks_checked", 0),
                oracle.get("at_risk_reads", 0),
                oracle.get("mismatches", 0),
            ])
        if args.report_out is not None:
            from repro.obs import build_run_report

            reports.append(
                build_run_report(result, seed=args.seed, scale=args.scale)
            )
    print(
        render_table(
            f"{args.trace} @ scale {args.scale} (4-disk RAID-5)",
            ["scheme", "mean (ms)", "read (ms)", "write (ms)", "removed", "capacity"],
            rows,
        )
    )
    if fault_rows:
        print()
        print(render_table(
            "fault injection (same plan armed against every scheme)",
            ["scheme", "recoveries", "blocks checked", "at-risk reads",
             "mismatches"],
            fault_rows,
        ))
    if args.report_out is not None:
        from repro.obs import build_compare_report, write_report

        write_report(build_compare_report(reports), args.report_out)
        print(f"\nwrote {args.report_out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import diff_reports, load_report, render_report

    if len(args.paths) > 2:
        print("stats takes one report (render) or two (diff)", file=sys.stderr)
        return 2
    if len(args.paths) == 2:
        a, b = (load_report(p) for p in args.paths)
        print(diff_reports(a, b))
        return 0
    report = load_report(args.paths[0])
    print(render_report(report))
    if args.buckets:
        docs = report.get("runs", [report]) if report.get("kind") else [report]
        for doc in docs:
            for name, hist in sorted(doc.get("histograms", {}).items()):
                buckets = hist.get("buckets")
                if not buckets:
                    continue
                print()
                print(render_table(
                    f"{doc.get('scheme')}/{doc.get('trace')} {name} buckets (s)",
                    ["lower", "upper", "count"],
                    [[f"{lo:.3g}", hi if isinstance(hi, str) else f"{hi:.3g}", c]
                     for lo, hi, c in buckets],
                ))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import figures

    names = list(FIGURES) if args.only is None else args.only.split(",")
    for name in names:
        attr = FIGURES.get(name.strip())
        if attr is None:
            print(f"unknown figure {name!r}; choose from {', '.join(FIGURES)}",
                  file=sys.stderr)
            return 2
        fn = getattr(figures, attr)
        if name == "table1":
            _rows, text = fn()
        else:
            _rows, text = fn(scale=args.scale)
        print(text)
        print()
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.traces import (
        generate_trace,
        io_vs_capacity_redundancy,
        load_trace,
        paper_traces,
        redundancy_by_size,
        save_trace,
        trace_characteristics,
    )

    if args.trace_command == "generate":
        spec = paper_traces()[args.trace]
        trace = generate_trace(spec, seed=args.seed, scale=args.scale)
        save_trace(trace, args.out)
        print(f"wrote {args.out}: {len(trace)} requests "
              f"({trace.warmup_count} warm-up), {trace.logical_blocks} logical blocks")
        return 0

    trace = load_trace(args.path)
    ch = trace_characteristics(trace)
    red = io_vs_capacity_redundancy(trace)
    print(render_table(
        f"trace {trace.name}",
        ["metric", "value"],
        [
            ["requests (measured)", ch.io_count],
            ["write ratio", f"{ch.write_ratio * 100:.1f}%"],
            ["mean request size", f"{ch.mean_request_kb:.1f} KB"],
            ["I/O redundancy", f"{red.io_redundancy_pct:.1f}%"],
            ["capacity redundancy", f"{red.capacity_redundancy_pct:.1f}%"],
        ],
    ))
    rows = redundancy_by_size(trace)
    print()
    print(render_table(
        "write redundancy by size",
        ["bucket", "total", "fully red.", "partially red."],
        [[f"{r.bucket_kb} KB", r.total, r.fully_redundant, r.partially_redundant] for r in rows],
    ))
    return 0


def _timeline_rows(doc: dict, limit: int) -> List[list]:
    windows = doc.get("windows", [])
    shown = windows if limit <= 0 else windows[:limit]
    rows = []
    for w in shown:
        rows.append([
            w["index"],
            f"{w['t0']:.2f}",
            w.get("requests", 0),
            f"{w.get('read_latency', {}).get('p95', 0.0) * 1e3:.3f}",
            f"{w.get('write_latency', {}).get('p95', 0.0) * 1e3:.3f}",
            f"{w.get('dedup_ratio', 0.0):.3f}",
            f"{w.get('read_cache_hit_rate', 0.0):.3f}",
            ",".join(sorted(w.get("activity", {}))) or "-",
        ])
    return rows


def cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs import load_timeline, to_openmetrics

    if args.timeline_command == "render":
        doc = load_timeline(args.path)
        windows = doc.get("windows", [])
        print(render_table(
            f"timeline: {len(windows)} windows of {doc.get('window')}s "
            f"(t_end {doc.get('t_end', 0.0):.3f})",
            ["win", "t0", "reqs", "rd p95 ms", "wr p95 ms", "dedup",
             "cache hit", "activity"],
            _timeline_rows(doc, args.limit),
        ))
        if args.limit > 0 and len(windows) > args.limit:
            print(f"... {len(windows) - args.limit} more windows "
                  f"(--limit 0 for all)")
        return 0

    if args.timeline_command == "diff":
        a, b = (load_timeline(p) for p in args.paths)
        wa = {w["index"]: w for w in a.get("windows", [])}
        wb = {w["index"]: w for w in b.get("windows", [])}
        print(f"A: {len(wa)} windows of {a.get('window')}s; "
              f"B: {len(wb)} windows of {b.get('window')}s")
        rows = []
        for idx in sorted(set(wa) | set(wb)):
            xa, xb = wa.get(idx), wb.get(idx)
            if xa == xb:
                continue
            ra = xa.get("requests", 0) if xa else "--"
            rb = xb.get("requests", 0) if xb else "--"
            pa = (f"{xa.get('read_latency', {}).get('p95', 0.0) * 1e3:.3f}"
                  if xa else "--")
            pb = (f"{xb.get('read_latency', {}).get('p95', 0.0) * 1e3:.3f}"
                  if xb else "--")
            rows.append([idx, ra, rb, pa, pb])
        if not rows:
            print("timelines are identical")
            return 0
        shown = rows if args.limit <= 0 else rows[:args.limit]
        print(render_table(
            f"{len(rows)} differing windows",
            ["win", "reqs A", "reqs B", "rd p95 A (ms)", "rd p95 B (ms)"],
            shown,
        ))
        if args.limit > 0 and len(rows) > args.limit:
            print(f"... {len(rows) - args.limit} more differing windows")
        return 1

    # export
    doc = load_timeline(args.path)
    text = to_openmetrics(doc, prefix=args.prefix)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}: {len(text.splitlines())} lines")
    return 0


def cmd_dash(args: argparse.Namespace) -> int:
    from repro.obs import build_dashboard_html, load_report

    report = load_report(args.path)
    html = build_dashboard_html(report)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(html)
    print(f"wrote {args.out} ({len(html)} bytes, self-contained)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report_md import build_report
    from pathlib import Path

    report = build_report(args.scale)
    out = Path.cwd() / "EXPERIMENTS.md"
    out.write_text(report + "\n")
    print(f"wrote {out}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint

    argv: List[str] = list(args.paths) or ["src"]
    argv += ["--format", args.format]
    if args.flow:
        argv += ["--flow"]
    if args.select is not None:
        argv += ["--select", args.select]
    if args.fix:
        argv += ["--fix"]
    if args.baseline is not None:
        argv += ["--baseline", args.baseline]
    if args.write_baseline is not None:
        argv += ["--write-baseline", args.write_baseline]
    if args.dump_summaries:
        argv += ["--dump-summaries"]
    if args.list_rules:
        argv += ["--list-rules"]
    return lint.main(argv)


def cmd_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.export import export_all

    export_all(Path(args.out), args.scale)
    print(f"wrote {args.out}/ (CSV per figure + figures.json) at scale {args.scale}")
    return 0


COMMANDS = {
    "run": cmd_run,
    "run-multi": cmd_run_multi,
    "run-cluster": cmd_run_cluster,
    "compare": cmd_compare,
    "stats": cmd_stats,
    "figures": cmd_figures,
    "timeline": cmd_timeline,
    "dash": cmd_dash,
    "trace": cmd_trace,
    "report": cmd_report,
    "export": cmd_export,
    "lint": cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. `repro stats r.json | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
