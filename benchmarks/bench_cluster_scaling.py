"""Cluster scaling: response time and dedup traffic vs node count and
network latency.

Beyond the paper (its testbed is one node), but the natural question
for the Section I cloud scenario: what happens to POD's performance
when the consolidated tenant set is sharded across 1/2/4/8 complete
POD instances connected by a real network?

Shape contracts (deliberately conservative -- per-run response times
depend on queueing details we do not want to over-pin):

* one node never does remote lookups; remote lookups per write request
  are non-decreasing in node count (a bigger share of the fingerprint
  directory lives elsewhere);
* per-node accounting sums to cluster totals at every size;
* adding spindles helps the bottleneck: the busiest disk at 8 nodes is
  strictly less busy than at 1 node;
* at fixed membership, mean and p99 response times are non-decreasing
  in network latency, while the remote-lookup count is latency-
  invariant (the fabric changes *when*, never *what*).
"""

from conftest import emit

from repro.cluster import ClusterConfig, Consistency, DirectoryConfig, NetworkModel
from repro.cluster.directory import required
from repro.experiments import runner
from repro.metrics.report import render_table

TRACES = ["web-vm", "mail"]
COPIES = 4  # 8 tenant volumes -> supports up to 8 nodes
SEED = 11
NODE_COUNTS = (1, 2, 4, 8)
LATENCIES = (10e-6, 200e-6, 2e-3)
#: Replicated-directory sweep: (replication, consistency) pairs on a
#: fixed 4-node cluster.  quorum(2) == quorum(3) == 2, so the R=3/all
#: row is what exposes the third replica's wire cost.
REPLICATIONS = (
    (1, Consistency.QUORUM),
    (2, Consistency.QUORUM),
    (3, Consistency.QUORUM),
    (3, Consistency.ALL),
)


def _row(result, nodes):
    overall = result.metrics.overall_summary()
    bottleneck = max(d["busy_time"] for d in result.utilisation.values())
    cluster = result.cluster_stats
    writes = sum(n["writes_total"] for n in result.nodes) if result.nodes else None
    return {
        "nodes": nodes,
        "mean_ms": overall.mean * 1e3,
        "p99_ms": overall.p99 * 1e3,
        "bottleneck_busy_s": bottleneck,
        "throughput_rps": overall.count / bottleneck,
        "remote_lookups": 0 if cluster is None else cluster["remote_lookups"],
        "remote_share": (
            0.0
            if cluster is None or not writes
            else cluster["remote_lookups"] / writes
        ),
        "result": result,
    }


def run_node_sweep(scale):
    rows = []
    for nodes in NODE_COUNTS:
        result = runner.execute(runner.RunSpec(
            TRACES, "POD", tenants=runner.Tenants(copies=COPIES), nodes=nodes,
            seed=SEED, scale=scale,
        ))
        rows.append(_row(result, nodes))
    return rows


def run_latency_sweep(scale):
    rows = []
    for latency in LATENCIES:
        result = runner.execute(runner.RunSpec(
            TRACES, "POD", tenants=runner.Tenants(copies=COPIES), nodes=4,
            cluster=ClusterConfig(net=NetworkModel(latency=latency)),
            seed=SEED, scale=scale,
        ))
        overall = result.metrics.overall_summary()
        rows.append(
            {
                "latency_us": latency * 1e6,
                "mean_ms": overall.mean * 1e3,
                "p99_ms": overall.p99 * 1e3,
                "remote_lookups": result.cluster_stats["remote_lookups"],
            }
        )
    return rows


def test_cluster_node_scaling(benchmark, scale):
    rows = benchmark(run_node_sweep, scale)
    text = render_table(
        "Cluster scaling: POD across 1/2/4/8 nodes (web-vm+mail x4 tenants)",
        ["nodes", "mean (ms)", "p99 (ms)", "tput (req/s)", "remote lkp", "lkp/write"],
        [
            [
                r["nodes"],
                r["mean_ms"],
                r["p99_ms"],
                r["throughput_rps"],
                r["remote_lookups"],
                r["remote_share"],
            ]
            for r in rows
        ],
        note="sharding the directory trades remote lookups for spindles",
    )
    emit("cluster_node_scaling", text)

    by = {r["nodes"]: r for r in rows}
    # one node is the single-node replay: nothing is remote
    assert by[1]["remote_lookups"] == 0
    # remote share of write traffic grows (weakly) with node count
    shares = [by[n]["remote_share"] for n in NODE_COUNTS]
    assert all(b >= a for a, b in zip(shares, shares[1:]))
    assert by[8]["remote_lookups"] > by[2]["remote_lookups"] > 0
    # more arrays relieve the bottleneck spindle
    assert by[8]["bottleneck_busy_s"] < by[1]["bottleneck_busy_s"]
    assert by[8]["throughput_rps"] > by[1]["throughput_rps"]
    # accounting conservation at every cluster size
    for nodes in NODE_COUNTS[1:]:
        result = by[nodes]["result"]
        cluster = result.cluster_stats
        for key in ("remote_lookups", "remote_duplicate_blocks"):
            assert sum(n[key] for n in result.nodes) == cluster[key]
        assert (
            sum(n["capacity_blocks"] for n in result.nodes)
            == result.capacity_blocks
        )


def run_replication_sweep(scale):
    rows = []
    baseline = runner.execute(runner.RunSpec(
        TRACES, "POD", tenants=runner.Tenants(copies=COPIES), nodes=4,
        seed=SEED, scale=scale,
    ))
    for replication, level in REPLICATIONS:
        result = runner.execute(runner.RunSpec(
            TRACES, "POD", tenants=runner.Tenants(copies=COPIES), nodes=4,
            cluster=ClusterConfig(
                directory=DirectoryConfig(
                    replication=replication, consistency=level
                )
            ),
            seed=SEED, scale=scale,
        ))
        overall = result.metrics.overall_summary()
        d = result.cluster_stats["directory"]
        rows.append(
            {
                "replication": replication,
                "consistency": level.value,
                "need": required(level, replication),
                "mean_ms": overall.mean * 1e3,
                "p99_ms": overall.p99 * 1e3,
                "bytes_moved": result.cluster_stats["fabric"]["bytes_moved"],
                "entries": sum(d["entries"].values()),
                "registrations": d["registrations"],
                "remote_dup": result.cluster_stats["remote_duplicate_blocks"],
            }
        )
    return baseline, rows


def test_cluster_replication_sweep(benchmark, scale):
    baseline, rows = benchmark(run_replication_sweep, scale)
    text = render_table(
        "Replicated directory: R x consistency sweep (4 nodes)",
        ["R", "level", "ack", "mean (ms)", "p99 (ms)", "fabric bytes", "entries"],
        [
            [
                r["replication"],
                r["consistency"],
                r["need"],
                r["mean_ms"],
                r["p99_ms"],
                r["bytes_moved"],
                r["entries"],
            ]
            for r in rows
        ],
        note="replication buys kill tolerance with wire bytes, never dedup",
    )
    emit("cluster_replication_sweep", text)

    overall = baseline.metrics.overall_summary()
    # R=1 armed is the legacy sharded directory, bit for bit
    assert rows[0]["mean_ms"] == overall.mean * 1e3
    assert rows[0]["p99_ms"] == overall.p99 * 1e3
    # entry placement is exactly "required acks" copies per first write
    for r in rows:
        assert r["entries"] == r["need"] * r["registrations"]
    # consistency changes wire cost, never what dedup finds
    assert len({r["remote_dup"] for r in rows}) == 1
    # wire bytes grow with the ack count and nothing else
    by_need = sorted(rows, key=lambda r: r["need"])
    bytes_by_need = [r["bytes_moved"] for r in by_need]
    assert all(b >= a for a, b in zip(bytes_by_need, bytes_by_need[1:]))
    assert by_need[-1]["bytes_moved"] > by_need[0]["bytes_moved"]


def test_cluster_latency_sensitivity(benchmark, scale):
    rows = benchmark(run_latency_sweep, scale)
    text = render_table(
        "Cluster latency sensitivity: 4 nodes, fabric latency sweep",
        ["latency (us)", "mean (ms)", "p99 (ms)", "remote lkp"],
        [
            [r["latency_us"], r["mean_ms"], r["p99_ms"], r["remote_lookups"]]
            for r in rows
        ],
        note="the fabric changes when lookups resolve, never what they find",
    )
    emit("cluster_latency_sensitivity", text)

    means = [r["mean_ms"] for r in rows]
    p99s = [r["p99_ms"] for r in rows]
    assert all(b >= a for a, b in zip(means, means[1:]))
    # The p99 tail is dominated by disk queueing, and a slower fabric
    # perturbs arrival phasing enough to move it a fraction of a
    # percent either way -- so the tail contract is "never materially
    # better", not strict monotonicity.
    assert all(b >= 0.98 * a for a, b in zip(p99s, p99s[1:]))
    # the slowest fabric clearly hurts
    assert means[-1] > means[0]
    # ... but routing outcomes are latency-invariant
    assert len({r["remote_lookups"] for r in rows}) == 1
