"""The capability table: which loop runs a replay, and what is refused.

``repro.sim.replay.CAPABILITIES`` is the one place that decides whether
a run takes the columnar driver, falls back to the event loop, or is
refused with a ``ConfigError``.  Two kinds of test pin it:

* one directed case per rule: a minimal run that trips the rule gets
  the rule's reason on every path whose cell holds one, through the
  entry points (``replay_traces`` falls back or refuses,
  ``replay_cluster`` refuses before any request is planned);
* a generated sweep over feature combinations at no node count, one
  node and two nodes: every combination is refused with the table's
  reason or runs, an armed content oracle stays clean, and a run the
  driver takes reports exactly what the event loop reports.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.baselines.base import SchemeConfig
from repro.cluster.directory import DirectoryConfig, GcSpec
from repro.cluster.rebalance import RebalanceSpec
from repro.cluster.replay import ClusterConfig, replay_cluster
from repro.core.pod import POD
from repro.core.sar import SARDedupe
from repro.dedup.chunking import ChunkingConfig
from repro.errors import ConfigError
from repro.faults.plan import (
    FailSlowSpec,
    FaultPlan,
    LatentSectorErrorSpec,
    MemberFailureSpec,
    NodeFailureSpec,
)
from repro.jobs.plan import JobsConfig
from repro.obs.report import build_run_report
from repro.obs.slo import SloObjective, SloPolicy
from repro.obs.timeline import TimelineConfig
from repro.obs.trace import TraceRecorder
from repro.sim import batch
from repro.sim.replay import (
    CAPABILITIES,
    ReplayConfig,
    ReplayResult,
    ReplayRun,
    refusal,
    replay_traces,
)
from repro.storage.raid import RaidLevel
from repro.storage.ssd import SsdParams
from repro.traces.synthetic import HOMES, WEB_VM, generate_trace

SCALE = 0.01
#: Two volumes (600 + 260 requests, ~15 s): volume v lives on node
#: ``v % nodes``.
TRACES = [generate_trace(WEB_VM, scale=SCALE), generate_trace(HOMES, scale=SCALE)]

DRIVER, ONE_NODE, MULTI_NODE = 0, 1, 2
PATH_NODES = {ONE_NODE: 1, MULTI_NODE: 2}

MEMBER_FAILURE = FaultPlan(member_failure=MemberFailureSpec(disk=2, time=6.0))


def build_schemes(nodes: int, cdc: bool = False, sar: bool = False) -> List[Any]:
    """One scheme per node, sized for the volumes it owns."""
    schemes = []
    for n in range(nodes):
        owned = [t for v, t in enumerate(TRACES) if v % nodes == n]
        config = SchemeConfig(
            logical_blocks=sum(t.logical_blocks for t in owned),
            memory_bytes=256 * 1024,
            chunking=ChunkingConfig() if cdc else None,
            ssd_bytes=4 * 1024 * 1024 if sar else 0,
        )
        schemes.append((SARDedupe if sar else POD)(config))
    return schemes


def replay(
    nodes: Optional[int],
    config: ReplayConfig,
    cluster: ClusterConfig,
    schemes: Sequence[Any],
    recorder: Optional[TraceRecorder] = None,
    batch_size: Optional[int] = 4096,
) -> ReplayResult:
    """``replay_traces`` without a node count, else ``replay_cluster``."""
    if nodes is None:
        return replay_traces(
            TRACES, schemes[0], config, recorder=recorder, batch_size=batch_size
        )
    return replay_cluster(TRACES, schemes, cluster, config, recorder=recorder)


@pytest.fixture
def driver_calls(monkeypatch) -> List[int]:
    """Counts the replays that take the columnar driver."""
    calls: List[int] = []
    replay_columnar = batch.replay_columnar

    def spy(*args, **kwargs):
        calls.append(1)
        return replay_columnar(*args, **kwargs)

    monkeypatch.setattr(batch, "replay_columnar", spy)
    return calls


# ----------------------------------------------------------------------
# one directed case per rule
# ----------------------------------------------------------------------


#: The paths a rule keeps a run off (its cells that hold a reason).
FALLS_BACK = (DRIVER,)
NEEDS_ONE_NODE = (MULTI_NODE,)
REFUSED = (DRIVER, ONE_NODE, MULTI_NODE)


class Case:
    """A minimal run that trips one rule, and the paths the rule keeps
    it off."""

    def __init__(
        self,
        off: Tuple[int, ...],
        config: ReplayConfig = ReplayConfig(),
        cluster: ClusterConfig = ClusterConfig(),
        cdc: bool = False,
        sar: bool = False,
        recorder: bool = False,
        batch_size: Optional[int] = 4096,
    ) -> None:
        self.off = off
        self.config = config
        self.cluster = cluster
        self.cdc = cdc
        self.sar = sar
        self.recorder = recorder
        self.batch_size = batch_size

    def schemes(self, nodes: int) -> List[Any]:
        return build_schemes(nodes, cdc=self.cdc, sar=self.sar)

    def run(self, nodes: int) -> ReplayRun:
        return ReplayRun(
            self.config, self.cluster, self.schemes(nodes),
            TraceRecorder() if self.recorder else None, self.batch_size,
        )


CASES: Dict[str, Case] = {
    "faults need one node": Case(NEEDS_ONE_NODE, ReplayConfig(faults=FaultPlan())),
    "failed disk needs one node": Case(NEEDS_ONE_NODE, ReplayConfig(failed_disk=1)),
    "node failure + faults/disk": Case(
        REFUSED,
        ReplayConfig(failed_disk=1),
        ClusterConfig(node_failure=NodeFailureSpec(node=0, time=6.0)),
    ),
    "CDC under a content oracle": Case(
        REFUSED, cluster=ClusterConfig(verify_content=True), cdc=True
    ),
    "directory + rebalance": Case(REFUSED, cluster=ClusterConfig(
        directory=DirectoryConfig(), rebalance=RebalanceSpec(time=6.0, add_nodes=1)
    )),
    "online GC without jobs": Case(
        REFUSED, cluster=ClusterConfig(directory=DirectoryConfig(gc=GcSpec()))
    ),
    "member failure off RAID-5": Case(
        REFUSED, ReplayConfig(raid_level=RaidLevel.RAID0, faults=MEMBER_FAILURE)
    ),
    "member failure, degraded array": Case(
        REFUSED, ReplayConfig(failed_disk=1, faults=MEMBER_FAILURE)
    ),
    "failed disk off RAID-5": Case(
        REFUSED, ReplayConfig(raid_level=RaidLevel.RAID0, failed_disk=1)
    ),
    "SSD scheme without an SSD": Case(REFUSED, sar=True),
    "faults": Case(FALLS_BACK, ReplayConfig(faults=FaultPlan())),
    "ssd tier": Case(FALLS_BACK, ReplayConfig(ssd_params=SsdParams())),
    "invariant checks": Case(FALLS_BACK, ReplayConfig(check_invariants=True)),
    "spans": Case(FALLS_BACK, ReplayConfig(spans=True)),
    "jobs": Case(FALLS_BACK, ReplayConfig(jobs=JobsConfig())),
    "recorder": Case(FALLS_BACK, recorder=True),
    "batch_size=None": Case(FALLS_BACK, batch_size=None),
}

#: (rule, path) cells a rule earlier in the table always decides
#: first: a node failure or a member failure comes with faults or a
#: failed disk, which N>1 refuses outright.
SHADOWED = {
    ("node failure + faults/disk", MULTI_NODE),
    ("member failure off RAID-5", MULTI_NODE),
    ("member failure, degraded array", MULTI_NODE),
    ("failed disk off RAID-5", MULTI_NODE),
}

RULES = {rule.name: rule for rule in CAPABILITIES}

CELLS = [(name, path) for name, case in CASES.items() for path in case.off]


def test_every_rule_has_a_case():
    assert list(CASES) == [rule.name for rule in CAPABILITIES]


@pytest.mark.parametrize("name", sorted(CASES))
def test_reasons_only_where_the_case_expects_them(name):
    cells = RULES[name].cells
    assert [p for p in REFUSED if cells[p] is not None] == list(CASES[name].off)
    if CASES[name].off == REFUSED:
        assert cells[DRIVER] == cells[ONE_NODE] == cells[MULTI_NODE]


def test_plain_run_takes_the_driver(driver_calls):
    run = ReplayRun(ReplayConfig(), ClusterConfig(), build_schemes(1), None, 4096)
    assert refusal(run, driver=True) is None
    replay(None, ReplayConfig(), ClusterConfig(), run.schemes)
    assert driver_calls == [1]


@pytest.mark.parametrize("name,path", CELLS)
def test_rule_reason_on_its_path(name, path, driver_calls):
    rule, case = RULES[name], CASES[name]
    run = case.run(PATH_NODES.get(path, 1))
    assert rule.applies(run)
    got = refusal(run, driver=path == DRIVER)
    if (name, path) in SHADOWED:
        earlier = CAPABILITIES[: list(RULES).index(name)]
        assert got in {r.cells[path] for r in earlier if r.applies(run)}
        return
    assert got == rule.cells[path]
    event_loop = refusal(ReplayRun(run.config, run.cluster, run.schemes, run.recorder))
    if path == DRIVER and case.cluster == ClusterConfig():
        # replay_traces falls back: the event loop runs the case or
        # refuses it with its own reason.
        if event_loop is None:
            replay(None, case.config, case.cluster, run.schemes,
                   run.recorder, case.batch_size)
        else:
            with pytest.raises(ConfigError, match=re.escape(event_loop)):
                replay(None, case.config, case.cluster, run.schemes,
                       run.recorder, case.batch_size)
        assert driver_calls == []
    elif path != DRIVER:
        nodes = PATH_NODES[path]
        with pytest.raises(ConfigError, match=re.escape(got)):
            replay(nodes, case.config, case.cluster, run.schemes, run.recorder)
        assert all(s.writes_total == s.reads_total == 0 for s in run.schemes)


# ----------------------------------------------------------------------
# generated combinations
# ----------------------------------------------------------------------

REPLAY_FEATURES = (
    "raid0", "failed_disk", "ssd", "invariants", "faults", "spans",
    "timeline", "slo", "jobs", "recorder", "object_loop", "cdc", "sar",
)
CLUSTER_FEATURES = (
    "rebalance", "node_failure", "fail_slow", "verify_content", "directory",
    "gc",
)

#: Rebuilds skip empty rows, so a failure costs a small replay little.
FAULTS = FaultPlan(
    seed=3,
    latent_sector_errors=LatentSectorErrorSpec(random_count=4),
    member_failure=MemberFailureSpec(disk=2, time=6.0, capacity_aware=True),
)
SLO = SloPolicy(objectives=(
    SloObjective(name="writes", metric="latency", threshold=0.02, op="write"),
))


def configs(features: frozenset, nodes: Optional[int]) -> Tuple[ReplayConfig, ClusterConfig]:
    on = features.__contains__
    config = ReplayConfig(
        raid_level=RaidLevel.RAID0 if on("raid0") else RaidLevel.RAID5,
        failed_disk=1 if on("failed_disk") else None,
        ssd_params=SsdParams() if on("ssd") else None,
        check_invariants=on("invariants"),
        sanitize_every=200,
        faults=FAULTS if on("faults") else None,
        spans=on("spans"),
        timeline=TimelineConfig(window=2.0) if on("timeline") else None,
        slo=SLO if on("slo") else None,
        jobs=JobsConfig() if on("jobs") else None,
    )
    if nodes is None:
        return config, ClusterConfig()
    directory = None
    if on("directory") or on("gc"):
        directory = DirectoryConfig(
            replication=nodes, gc=GcSpec(start=4.0) if on("gc") else None
        )
    cluster = ClusterConfig(
        rebalance=RebalanceSpec(time=6.0, add_nodes=1) if on("rebalance") else None,
        node_failure=(
            NodeFailureSpec(node=0, time=6.0, disk=1, capacity_aware=True)
            if on("node_failure") else None
        ),
        fail_slow=(FailSlowSpec(disk=0, start=2.0, end=6.0),) if on("fail_slow") else (),
        verify_content=on("verify_content"),
        directory=directory,
    )
    return config, cluster


def report(result: ReplayResult) -> str:
    doc = build_run_report(result, seed=0, scale=SCALE, clock=lambda: 0.0)
    return json.dumps(doc, sort_keys=True, default=str)


@given(
    features=st.frozensets(
        st.sampled_from(REPLAY_FEATURES + CLUSTER_FEATURES), max_size=5
    ),
    nodes=st.sampled_from([None, 1, 2]),
)
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_every_combination_runs_or_is_refused_by_the_table(features, nodes):
    on = features.__contains__
    config, cluster = configs(features, nodes)
    cdc, sar = on("cdc"), on("sar")
    schemes = build_schemes(nodes or 1, cdc=cdc, sar=sar)
    recorder = TraceRecorder() if on("recorder") else None
    batch_size = None if on("object_loop") else 4096
    run = ReplayRun(config, cluster, schemes, recorder, batch_size)
    expected = refusal(run)
    try:
        result = replay(nodes, config, cluster, schemes, recorder, batch_size)
    except ConfigError as exc:
        assert expected is not None, exc
        assert str(exc) == expected
        assert all(s.writes_total == s.reads_total == 0 for s in schemes)
        event("refused")
        return
    assert expected is None
    on_driver = nodes is None and refusal(run, driver=True) is None
    event("driver" if on_driver else "event loop")
    if result.fault_stats is not None:
        assert result.fault_stats["oracle"]["mismatches"] == 0
    if result.cluster_stats is not None:
        for oracle in result.cluster_stats.get("oracle", []):
            assert oracle["mismatches"] == 0
    if result.sanitizer is not None:
        assert result.sanitizer.violations == []
    if on_driver:
        reference = replay(
            None, config, cluster, build_schemes(1, cdc=cdc, sar=sar),
            batch_size=None,
        )
        assert report(result) == report(reference)
