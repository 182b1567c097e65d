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
import dataclasses
import sys
from typing import List, Optional

from repro.errors import ConfigError, ReproError
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


TRACE_NAMES = ("web-vm", "homes", "mail")


def _add_trace_args(p: argparse.ArgumentParser, *, tenants: bool) -> None:
    """What to replay and what to write: every replay command and
    ``compare``; ``tenants`` takes repeatable base trace families."""
    if tenants:
        p.add_argument("--trace", action="append", required=True, dest="traces",
                       choices=TRACE_NAMES, metavar="NAME",
                       help="base trace family (repeatable), expanded into "
                       "--copies tenant volumes")
        p.add_argument("--copies", type=int, default=2,
                       help="tenant clones per base trace (default 2)")
        p.add_argument("--divergence", type=float, default=0.15,
                       help="share of each clone's content privatised away "
                       "from the golden image (default 0.15)")
        p.add_argument("--skew", type=float, default=0.5,
                       help="tenant k runs at (k+1)^-skew of the base "
                       "arrival rate (default 0.5)")
    else:
        p.add_argument("--trace", required=True, choices=TRACE_NAMES)
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--seed", type=int,
                   help="trace-generator seed (recorded in the run report)")
    p.add_argument("--report-out", metavar="FILE.json",
                   help="write the versioned machine-readable run report "
                   "(compare: one bundling every scheme's run report)")
    p.add_argument("--check-invariants", action="store_true",
                   help="debug mode: validate every POD invariant (Map/Index "
                   "tables, iCache budgets, NVRAM model) on every node during "
                   "the replay; fails on the first violation, never changes "
                   "simulated times")


def _add_fault_args(p: argparse.ArgumentParser, *, chunking: bool) -> None:
    """Single-node replay flags: fault plan, and CDC unless ``compare``."""
    p.add_argument("--faults", metavar="PLAN.json",
                   help="arm a deterministic fault plan (JSON, see "
                   "docs/robustness.md and examples/faults.json)")
    p.add_argument("--fault-seed", type=int, metavar="N",
                   help="override the fault plan's RNG seed (requires --faults)")
    if chunking:
        p.add_argument("--chunking", metavar="[ALGO:]MIN:AVG:MAX",
                       help="content-defined chunking, bounds in 4 KB blocks "
                       "(AVG a power of two); ALGO is 'gear' or 'rabin', bare "
                       "'gear'/'rabin' take the default bounds (2:4:16)")


def _add_replay_args(
    p: argparse.ArgumentParser, scheme_help: str, *, tenants: bool
) -> None:
    """Scheme, sanitizer cadence, telemetry and leased jobs: shared by
    run / run-multi / run-cluster."""
    p.add_argument("--scheme", required=not tenants, default="POD",
                   help=scheme_help)
    p.add_argument("--sanitize-every", type=int, default=1000, metavar="N",
                   help="structural-check cadence in requests "
                   "(with --check-invariants; default 1000)")
    p.add_argument("--timeline", type=float, nargs="?", const=1.0,
                   metavar="SECONDS",
                   help="sample windowed telemetry (throughput, latency "
                   "percentiles, dedup/cache rates, queue depths) per window "
                   "of this many simulated seconds (bare flag: 1.0)")
    p.add_argument("--spans", action="store_true",
                   help="record causal spans through the request lifecycle "
                   "(admission, classify, remote lookup, disk, recovery)")
    p.add_argument("--slo", metavar="POLICY.json",
                   help="evaluate SLO objectives over the timeline windows "
                   "(JSON policy, see examples/slo.json; implies --timeline)")
    p.add_argument("--timeline-out", metavar="FILE.jsonl",
                   help="write the timeline as JSON Lines (needs --timeline/--slo)")
    p.add_argument("--spans-out", metavar="FILE.jsonl",
                   help="write completed spans as JSON Lines (requires --spans)")
    p.add_argument("--jobs", nargs="?", const="", metavar="CONFIG.json",
                   help="arm the leased background-job subsystem (workers, "
                   "lease policy, scrubber, admission; JSON, see "
                   "examples/jobs.json; bare flag: defaults)")
    p.add_argument("--scrub", action="store_true",
                   help="run a background scrubber job (implies --jobs)")
    p.add_argument("--admission", metavar="RATE:BURST",
                   help="per-tenant token-bucket admission control in "
                   "blocks/s and burst blocks (implies --jobs)")


def _add_array_args(p: argparse.ArgumentParser) -> None:
    """``run`` only: one array's geometry and event recording."""
    p.add_argument("--index-fraction", type=float,
                   help="fixed index-cache share (non-POD schemes)")
    p.add_argument("--failed-disk", type=int,
                   help="run the RAID-5 array degraded with this member failed")
    p.add_argument("--raid", choices=["raid5", "raid0", "single"], default="raid5")
    p.add_argument("--ndisks", type=int,
                   help="member disks (default 4 for raid5/raid0, 1 for single)")
    p.add_argument("--trace-level", choices=["off", "summary", "request", "chunk"],
                   help="event-recording verbosity (default: request when "
                   "--trace-out is given, off otherwise)")
    p.add_argument("--trace-out", metavar="FILE.jsonl",
                   help="write the recorded simulation events as JSON Lines")


def _add_cluster_args(p: argparse.ArgumentParser) -> None:
    """``run-cluster`` only: nodes, network, membership, directory."""
    p.add_argument("--nodes", type=int, default=2,
                   help="POD nodes, volumes assigned round-robin (default 2)")
    p.add_argument("--vnodes", type=int,
                   help="virtual nodes per member on the hash ring (default 64)")
    p.add_argument("--net-latency", type=float, metavar="SECONDS",
                   help="one-way network latency (default 100e-6)")
    p.add_argument("--net-bandwidth", type=float, metavar="BYTES_PER_S",
                   help="per-link bandwidth (default 1e9)")
    p.add_argument("--rebalance-at", type=float, metavar="SECONDS",
                   help="trigger a membership change at this simulated time")
    p.add_argument("--rebalance-add", type=int, default=0, metavar="N",
                   help="nodes to add at --rebalance-at (default 0)")
    p.add_argument("--rebalance-remove", type=int, metavar="NODE",
                   help="node id to retire at --rebalance-at")
    p.add_argument("--migrate-batch", type=int, default=256, metavar="N",
                   help="shard entries migrated per background batch (default 256)")
    p.add_argument("--migrate-interval", type=float, default=0.01, metavar="SECONDS",
                   help="pause between migration batches (default 0.01)")
    p.add_argument("--fail-node", type=int, metavar="NODE",
                   help="degrade this node's RAID-5 array mid-run and pace a "
                   "rebuild (needs --fail-node-at)")
    p.add_argument("--fail-node-at", type=float, metavar="SECONDS",
                   help="simulated time of the node failure")
    p.add_argument("--fail-slow", action="append", metavar="DISK:START:END:MULT",
                   help="fail-slow window on a cluster disk (global disk id = "
                   "node * ndisks + member); repeatable. A window overlapping "
                   "a leased rebuild exercises stale-lease recovery")
    p.add_argument("--replication", type=int, metavar="R",
                   help="arm the replicated fingerprint directory with R-way "
                   "placement (R=1 pins the legacy single-copy arithmetic)")
    p.add_argument("--consistency", choices=["one", "quorum", "all"],
                   default="quorum",
                   help="directory consistency level (with --replication)")
    p.add_argument("--gc", nargs="?", const="online", choices=["online", "stw"],
                   help="refcount GC over the replicated directory: 'online' "
                   "(leased job; implies --jobs) or 'stw' (stop-the-world "
                   "baseline); implies --replication 1 if unset")
    p.add_argument("--gc-start", type=float, default=0.0, metavar="SECONDS",
                   help="earliest simulated time GC may run (default 0)")
    p.add_argument("--gc-interval", type=float, default=0.05, metavar="SECONDS",
                   help="online GC: pause between job steps (default 0.05)")
    p.add_argument("--gc-batch", type=int, default=64, metavar="N",
                   help="online GC: decrement intents per step (default 64)")
    p.add_argument("--kill-metadata-node", metavar="NODE:SECONDS",
                   help="kill one node's directory replica at a simulated time; "
                   "degraded lookups fall back to surviving replicas and "
                   "trigger read repair")
    p.add_argument("--verify-content", action="store_true",
                   help="arm a per-node content oracle that checks every "
                   "read against the write history")


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
    _add_trace_args(run, tenants=False)
    _add_replay_args(run, scheme_help, tenants=False)
    _add_fault_args(run, chunking=True)
    _add_array_args(run)

    multi = sub.add_parser(
        "run-multi",
        help="replay several tenant volumes through one shared dedup domain",
    )
    _add_trace_args(multi, tenants=True)
    _add_replay_args(multi, scheme_help, tenants=True)
    _add_fault_args(multi, chunking=True)

    cluster = sub.add_parser(
        "run-cluster",
        help="replay the tenant volumes across a sharded multi-node cluster",
    )
    _add_trace_args(cluster, tenants=True)
    _add_replay_args(cluster, scheme_help, tenants=True)
    _add_cluster_args(cluster)

    compare = sub.add_parser("compare", help="replay one trace through every scheme")
    _add_trace_args(compare, tenants=False)
    _add_fault_args(compare, chunking=False)

    # The linter parses its own flags (repro.analysis.lint.build_parser).
    sub.add_parser(
        "lint", add_help=False, help="run the POD determinism linter "
        "(POD001..POD007; --flow adds the dataflow tier POD008..POD012)"
    )

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
    gen.add_argument("--trace", required=True, choices=TRACE_NAMES)
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


def _fields(flag: str, form: str, value: str, *types):
    """Split a colon-separated flag value into ``types``."""
    parts = value.split(":")
    try:
        if len(parts) != len(types):
            raise ValueError
        return [t(p) for t, p in zip(types, parts)]
    except ValueError:
        raise ConfigError(f"{flag} expects {form}, got {value!r}") from None


def _chunking_config(args: argparse.Namespace):
    """Parse ``--chunking`` into a :class:`ChunkingConfig`, if given.

    Accepts ``gear`` or ``rabin`` (default bounds) or
    ``[ALGO:]MIN:AVG:MAX`` in 4 KB blocks.
    """
    from repro.dedup.chunking import ChunkingConfig

    spec = getattr(args, "chunking", None)
    if spec is None:
        return None
    if spec in ("gear", "rabin"):
        return ChunkingConfig(algorithm=spec)
    algorithm, _, bounds = spec.partition(":")
    if algorithm not in ("gear", "rabin"):
        algorithm, bounds = "gear", spec
    lo, avg, hi = _fields("--chunking", "'gear', 'rabin' or [ALGO:]MIN:AVG:MAX "
                          "with integer bounds", bounds, int, int, int)
    return ChunkingConfig(
        min_blocks=lo, avg_blocks=avg, max_blocks=hi, algorithm=algorithm
    )


def _fault_plan(args: argparse.Namespace):
    """Load the ``--faults`` plan, if any, reseeded by ``--fault-seed``
    when given (which needs the plan)."""
    from repro.faults import FaultPlan

    seed = getattr(args, "fault_seed", None)
    if getattr(args, "faults", None) is None:
        if seed is not None:
            raise ConfigError("--fault-seed requires --faults")
        return None
    plan = FaultPlan.load(args.faults)
    return plan.with_seed(seed) if seed is not None else plan


def _jobs_config(args: argparse.Namespace):
    """Resolve the leased-job flags into a JobsConfig (or None).

    ``--scrub`` and ``--admission`` imply ``--jobs`` so the common
    cases need no config file; an explicit ``--jobs CONFIG.json``
    provides the full policy and the convenience flags overlay it.
    """
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
        rate, burst = _fields("--admission", "numeric RATE:BURST", admission,
                              float, float)
        config = dataclasses.replace(config, admission=AdmissionSpec(
            rate_blocks=rate, burst_blocks=burst))
    return config


def _directory_config(args: argparse.Namespace):
    """Resolve the replicated-directory flags (or None = legacy path).

    ``--gc`` and ``--kill-metadata-node`` imply ``--replication 1`` so
    the single-knob cases work; ``--gc online`` additionally implies
    ``--jobs`` (handled by the caller).
    """
    from repro.cluster.directory import Consistency, DirectoryConfig, GcSpec, KillSpec

    replication = getattr(args, "replication", None)
    gc_mode = getattr(args, "gc", None)
    kill = getattr(args, "kill_metadata_node", None)
    if replication is None and gc_mode is None and kill is None:
        return None
    return DirectoryConfig(
        replication=replication if replication is not None else 1,
        consistency=Consistency(args.consistency),
        gc=None if gc_mode is None else GcSpec(
            start=args.gc_start, interval=args.gc_interval,
            batch=args.gc_batch, mode=gc_mode,
        ),
        kill=None if kill is None else KillSpec(*_fields(
            "--kill-metadata-node", "numeric NODE:SECONDS", kill, int, float
        )),
    )


def _telemetry_config(args: argparse.Namespace) -> dict:
    """ReplayConfig telemetry kwargs from the shared CLI flags."""
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


def _cluster_config(args: argparse.Namespace):
    """Resolve the ``run-cluster`` flags into a ClusterConfig."""
    from repro.cluster import ClusterConfig, NetworkModel, RebalanceSpec
    from repro.faults import FailSlowSpec, NodeFailureSpec

    if args.rebalance_at is None and (
        args.rebalance_add or args.rebalance_remove is not None
    ):
        raise ConfigError("--rebalance-add/--rebalance-remove require --rebalance-at")
    if (args.fail_node is None) != (args.fail_node_at is None):
        raise ConfigError("--fail-node and --fail-node-at go together")
    net = {k: v for k, v in (("latency", args.net_latency),
                             ("bandwidth", args.net_bandwidth)) if v is not None}
    config = ClusterConfig(
        net=NetworkModel(**net),
        rebalance=None if args.rebalance_at is None else RebalanceSpec(
            time=args.rebalance_at, add_nodes=args.rebalance_add,
            remove_node=args.rebalance_remove,
            entries_per_batch=args.migrate_batch, interval=args.migrate_interval,
        ),
        node_failure=None if args.fail_node is None else NodeFailureSpec(
            node=args.fail_node, time=args.fail_node_at),
        fail_slow=tuple(
            FailSlowSpec(*_fields("--fail-slow", "numeric DISK:START:END:MULT",
                                  s, int, float, float, float))
            for s in args.fail_slow or []
        ),
        verify_content=args.verify_content,
        directory=_directory_config(args),
    )
    if args.vnodes is None:
        return config
    return dataclasses.replace(config, vnodes=args.vnodes)


def _run_spec(args: argparse.Namespace):
    """The :class:`~repro.experiments.runner.RunSpec` a replay
    command's flags describe (flags a command lacks take defaults)."""
    from repro.cluster import ClusterConfig
    from repro.experiments.runner import RunSpec, Tenants
    from repro.jobs import JobsConfig
    from repro.sim.replay import ReplayConfig
    from repro.storage.raid import RaidLevel

    overrides = {}
    if getattr(args, "index_fraction", None) is not None:
        overrides["index_fraction"] = args.index_fraction
    chunking = _chunking_config(args)
    if chunking is not None:
        overrides["chunking"] = chunking
    nodes = getattr(args, "nodes", None)
    cluster = _cluster_config(args) if nodes is not None else ClusterConfig()
    jobs = _jobs_config(args)
    gc = cluster.directory.gc if cluster.directory is not None else None
    if jobs is None and gc is not None and gc.mode == "online":
        jobs = JobsConfig()  # online GC runs as a leased job
    level = RaidLevel[getattr(args, "raid", "raid5").upper()]
    ndisks = getattr(args, "ndisks", None)
    replay = ReplayConfig(
        raid_level=level,
        ndisks=ndisks if ndisks is not None else (1 if level is RaidLevel.SINGLE else 4),
        failed_disk=getattr(args, "failed_disk", None),
        check_invariants=args.check_invariants,
        sanitize_every=getattr(args, "sanitize_every", 1000),
        faults=_fault_plan(args),
        jobs=jobs,
        **_telemetry_config(args),
    )
    tenants = None
    if hasattr(args, "copies"):
        tenants = Tenants(copies=args.copies, divergence=args.divergence,
                          skew=args.skew)
    return RunSpec(
        getattr(args, "traces", None) or (args.trace,),
        getattr(args, "scheme", "POD"), overrides, tenants=tenants,
        nodes=nodes, replay=replay, cluster=cluster, seed=args.seed,
        scale=args.scale,
    )


def _print_tables(result, spec) -> None:
    """The per-volume (one shared domain) or per-node and cluster
    sections a replay's result carries."""
    if spec.nodes is None and result.volumes:
        print()
        print(render_table(
            f"per-volume breakdown ({len(result.volumes)} volumes, "
            f"shared dedup domain)",
            ["vol", "name", "reqs", "mean ms", "wr elim blk",
             "x-vol dedup", "intra dedup"],
            [[v["volume_id"], v["name"], v.get("requests", 0),
              f"{v.get('mean_response', 0.0) * 1e3:.3f}",
              v.get("writes_eliminated_blocks", 0),
              v.get("cross_volume_deduped_blocks", 0),
              v.get("intra_volume_deduped_blocks", 0)]
             for v in result.volumes],
        ))
    if result.nodes:
        print()
        print(render_table(
            f"per-node breakdown ({len(result.nodes)} nodes, "
            f"sharded fingerprint directory)",
            ["node", "name", "vols", "reqs", "mean ms", "wr elim",
             "remote lkp", "remote dup", "rebal miss"],
            [[n["node_id"], n["name"], len(n.get("volumes", [])),
              n.get("requests", n.get("requests_served", 0)),
              f"{n.get('mean_response', 0.0) * 1e3:.3f}",
              n.get("write_requests_removed", 0), n.get("remote_lookups", 0),
              n.get("remote_duplicate_blocks", 0),
              n.get("rebalance_misses", 0)]
             for n in result.nodes],
        ))
    cs = result.cluster_stats
    if cs is None:
        return
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


def _print_summaries(result, args: argparse.Namespace) -> None:
    """One line per armed subsystem (invariants, faults, leased jobs,
    telemetry; full detail in reports) and the telemetry JSONL files."""
    if result.sanitizer is not None:
        s = result.sanitizer.summary()
        print(f"invariants clean: {s['checks_run']} structural checks, "
              f"{s['decisions_validated']} dedupe decisions validated")
    stats = result.fault_stats
    if stats:
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
    stats = result.jobs_stats
    if stats:
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
    if result.timeline is not None:
        doc = result.timeline.as_dict()
        print(f"timeline: {doc['windows_total']} windows of "
              f"{doc['window']:.4g}s (t_end {doc['t_end']:.3f})")
        if args.timeline_out is not None:
            lines = result.timeline.write_jsonl(args.timeline_out)
            print(f"wrote {args.timeline_out}: {lines - 1} windows")
    if result.spans is not None:
        s = result.spans.summary()
        print(f"spans: {s['spans']} recorded ({s['dropped']} dropped, "
              f"{s['open']} left open)")
        if args.spans_out is not None:
            lines = result.spans.write_jsonl(args.spans_out)
            print(f"wrote {args.spans_out}: {lines - 1} spans")
    slo = result.slo_stats
    if slo is not None:
        worst = max((o["worst_burn"] for o in slo["objectives"]), default=0.0)
        print(f"slo: {len(slo['objectives'])} objectives over "
              f"{slo['windows_evaluated']} windows, "
              f"{slo['violations_total']} violation windows, "
              f"worst burn rate {worst:.2f}")


def cmd_replay(args: argparse.Namespace) -> int:
    """``run``, ``run-multi`` and ``run-cluster``: build the spec,
    execute it, print the sections the result carries."""
    import time

    from repro.experiments.runner import execute
    from repro.obs import TraceLevel, TraceRecorder, build_run_report, write_report

    spec = _run_spec(args)
    # An explicit --trace-level wins; --trace-out implies "request" (a
    # trace file with no events would be useless); else no recording.
    level = getattr(args, "trace_level", None)
    trace_out = getattr(args, "trace_out", None)
    trace_level = (
        TraceLevel.parse(level) if level is not None
        else TraceLevel.REQUEST if trace_out is not None else TraceLevel.OFF
    )
    recorder = None
    if trace_level > TraceLevel.OFF or trace_out is not None:
        recorder = TraceRecorder(level=trace_level)
    t0 = time.perf_counter()
    result = execute(spec, recorder=recorder)
    wall = time.perf_counter() - t0
    _print_result(result)
    _print_tables(result, spec)
    _print_summaries(result, args)
    if trace_out is not None:
        lines = recorder.write_jsonl(trace_out)
        print(f"wrote {trace_out}: {lines - 1} events "
              f"(level {trace_level.name.lower()}, {recorder.dropped} dropped)")
    if args.report_out is not None:
        report = build_run_report(
            result, seed=spec.seed, scale=spec.scale, recorder=recorder,
            config=spec.as_dict(), overhead={"replay_wall_s": wall},
        )
        write_report(report, args.report_out)
        print(f"wrote {args.report_out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.runner import PAPER_SCHEMES, execute
    from repro.obs import build_compare_report, build_run_report, write_report

    base = _run_spec(args)
    rows = []
    reports = []
    fault_rows = []
    for scheme in PAPER_SCHEMES:
        spec = dataclasses.replace(base, scheme=scheme)
        result = execute(spec)
        m = result.metrics
        rows.append([
            scheme, m.overall_summary().mean * 1e3, m.read_summary().mean * 1e3,
            m.write_summary().mean * 1e3, f"{result.removed_write_pct:.1f}%",
            result.capacity_blocks,
        ])
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
            reports.append(build_run_report(
                result, seed=spec.seed, scale=spec.scale, config=spec.as_dict()
            ))
    print(render_table(
        f"{args.trace} @ scale {args.scale} (4-disk RAID-5)",
        ["scheme", "mean (ms)", "read (ms)", "write (ms)", "removed", "capacity"],
        rows,
    ))
    if fault_rows:
        print()
        print(render_table(
            "fault injection (same plan armed against every scheme)",
            ["scheme", "recoveries", "blocks checked", "at-risk reads",
             "mismatches"],
            fault_rows,
        ))
    if args.report_out is not None:
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

    return lint.main(args.lint_argv)


def cmd_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.export import export_all

    export_all(Path(args.out), args.scale)
    print(f"wrote {args.out}/ (CSV per figure + figures.json) at scale {args.scale}")
    return 0


COMMANDS = {
    "run": cmd_replay,
    "run-multi": cmd_replay,
    "run-cluster": cmd_replay,
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
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if args.command == "lint":
        args.lint_argv = extra
    elif extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. `repro stats r.json | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
