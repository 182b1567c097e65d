"""End-to-end telemetry acceptance tests.

Pins the three contracts the telemetry stack promises:

1. **Observation only.**  Arming any combination of timeline, span
   tracer and SLO policy never changes a single simulated decision or
   timestamp -- summaries are bit-identical to the unarmed run, on the
   single-node and the cluster path.  The armed-but-*empty* SLO policy
   is the sharpest corner (it arms the sampler implicitly), mirroring
   the armed-but-empty fault-plan contract.
2. **Localization.**  A fail-slow disk window and a mid-run cluster
   rebalance are *visible where they happened*: elevated per-window
   latency inside the window, activity annotations on those windows,
   and SLO violation windows carrying the concurrent activity.
3. **Surfacing.**  Reports gain timeline/spans/slo sections exactly
   when armed (the memo's scope is pinned in test_experiments.py); the
   CLI timeline/dash commands round-trip a written report.
"""

import dataclasses
import json

import pytest

from repro.experiments import runner
from repro.faults.plan import FailSlowSpec, FaultPlan
from repro.obs.dash import build_dashboard_html
from repro.obs.openmetrics import to_openmetrics
from repro.obs.report import build_run_report
from repro.obs.slo import SloObjective, SloPolicy
from repro.obs.timeline import TimelineConfig
from repro.cluster.rebalance import RebalanceSpec
from repro.cluster.replay import ClusterConfig
from repro.sim.replay import ReplayConfig

TELEMETRY = ReplayConfig(
    timeline=TimelineConfig(window=1.0),
    spans=True,
    slo=SloPolicy(objectives=(
        SloObjective(name="wr", metric="latency", threshold=0.02,
                     op="write", target=0.9),
    )),
)


def canonical_without_telemetry(report):
    doc = dict(report)
    for key in ("timeline", "spans", "slo"):
        doc.pop(key, None)
    return json.dumps(doc, sort_keys=True)


class TestObservationOnly:
    def test_single_node_summary_bit_identical(self):
        base = runner.execute(runner.RunSpec("web-vm", "POD", scale=0.02))
        armed = runner.execute(runner.RunSpec(
            "web-vm", "POD", replay=TELEMETRY, scale=0.02,
        ))
        assert base.summary() == armed.summary()
        assert base.timeline is None and armed.timeline is not None

    def test_cluster_summary_bit_identical(self):
        spec = runner.RunSpec(
            ["web-vm", "mail"], "POD", tenants=runner.Tenants(copies=1),
            nodes=2, seed=3, scale=0.02,
        )
        base = runner.execute(spec)
        armed = runner.execute(dataclasses.replace(spec, replay=TELEMETRY))
        assert base.summary() == armed.summary()
        assert armed.spans is not None and len(armed.spans.spans) > 0

    def test_armed_but_empty_slo_policy_bit_identity(self):
        """An empty policy arms the sampler (the sharpest off-by-one
        corner) yet the run and the rest of the report stay identical --
        the telemetry sections are the only delta."""
        base = runner.execute(runner.RunSpec(
            "web-vm", "POD", seed=11, scale=0.02,
        ))
        armed = runner.execute(runner.RunSpec(
            "web-vm", "POD", replay=ReplayConfig(slo=SloPolicy()), seed=11,
            scale=0.02,
        ))
        assert base.summary() == armed.summary()
        report_base = build_run_report(base, seed=11, clock=lambda: 0.0)
        report_armed = build_run_report(armed, seed=11, clock=lambda: 0.0)
        assert "timeline" not in report_base
        assert "timeline" in report_armed
        assert report_armed["slo"]["objectives"] == []
        assert canonical_without_telemetry(report_base) == \
            canonical_without_telemetry(report_armed)


class TestFailSlowLocalization:
    # placed inside the measured span (warmup traffic is unmetered)
    WINDOW = FailSlowSpec(disk=1, start=60.0, end=75.0, multiplier=12.0)

    def _windows(self):
        plan = FaultPlan(seed=1, fail_slow=(self.WINDOW,))
        result = runner.execute(runner.RunSpec(
            "web-vm", "POD",
            replay=ReplayConfig(
                faults=plan,
                timeline=TimelineConfig(window=1.0),
                slo=TELEMETRY.slo,
            ),
            seed=3, scale=0.05,
        ))
        return result, result.timeline.as_dict()["windows"]

    def test_fail_slow_window_is_annotated_and_visibly_slow(self):
        result, windows = self._windows()
        inside, outside = [], []
        for w in windows:
            if not w["writes"]:
                continue
            mean = w["write_latency"]["mean"]
            if "fail_slow" in w["activity"]:
                assert self.WINDOW.start - 1.0 <= w["t1"]
                assert w["t0"] <= self.WINDOW.end + 1.0
                inside.append(mean)
            else:
                outside.append(mean)
        assert inside and outside
        # the slowdown is localized: the fail-slow windows are clearly
        # slower than the healthy ones, not smeared over the whole run
        assert max(inside) > 3.0 * (sum(outside) / len(outside))

    def test_slo_violation_window_names_the_fail_slow(self):
        result, _ = self._windows()
        annotated = [
            v
            for obj in result.slo_stats["objectives"]
            for v in obj["violations"]
            if "fail_slow" in v["annotations"]
        ]
        assert annotated, (
            "no SLO violation window carries the fail_slow annotation"
        )


class TestRebalanceLocalization:
    def test_rebalance_windows_annotated_and_on_violations(self):
        cc = ClusterConfig(
            rebalance=RebalanceSpec(
                time=70.0, add_nodes=1, entries_per_batch=32, interval=0.2
            ),
        )
        result = runner.execute(runner.RunSpec(
            ["web-vm", "mail"], "POD", tenants=runner.Tenants(copies=1),
            nodes=2,
            replay=ReplayConfig(
                timeline=TimelineConfig(window=1.0),
                slo=SloPolicy(objectives=(
                    SloObjective(name="wr", metric="latency",
                                 threshold=0.01, op="write", target=0.95),
                )),
            ),
            cluster=cc, seed=7, scale=0.05,
        ))
        windows = result.timeline.as_dict()["windows"]
        flagged = [
            w for w in windows
            if "rebalance" in w["activity"] or "migration" in w["activity"]
        ]
        assert flagged
        assert all(w["t1"] >= 70.0 for w in flagged)
        annotated = [
            v
            for obj in result.slo_stats["objectives"]
            for v in obj["violations"]
            if {"rebalance", "migration"} & set(v["annotations"])
        ]
        assert annotated, (
            "no SLO violation window carries the rebalance annotation"
        )

    def test_cluster_node_window_sums_reconcile(self):
        result = runner.execute(runner.RunSpec(
            ["web-vm", "mail"], "POD", tenants=runner.Tenants(copies=1),
            nodes=2, replay=ReplayConfig(timeline=TimelineConfig(window=1.0)),
            seed=3, scale=0.02,
        ))
        windows = result.timeline.as_dict()["windows"]
        for node_id in result.metrics.node_ids():
            expected = result.metrics.node_as_dict(node_id)["requests"]
            wsum = sum(
                w["nodes"].get(str(node_id), {}).get("requests", 0)
                for w in windows
            )
            assert wsum == expected


class TestSurfacing:
    def test_report_sections_present_exactly_when_armed(self):
        base = runner.execute(runner.RunSpec("web-vm", "POD", scale=0.02))
        report = build_run_report(base, clock=lambda: 0.0)
        assert not ({"timeline", "spans", "slo"} & set(report))
        armed = runner.execute(runner.RunSpec(
            "web-vm", "POD", replay=TELEMETRY, scale=0.02,
        ))
        report = build_run_report(armed, clock=lambda: 0.0)
        assert {"timeline", "spans", "slo"} <= set(report)
        assert report["timeline"]["schema_version"] == 1
        json.dumps(report)  # fully serialisable

    def test_openmetrics_and_dashboard_from_report(self):
        armed = runner.execute(runner.RunSpec(
            "web-vm", "POD", replay=TELEMETRY, scale=0.02,
        ))
        report = build_run_report(armed, clock=lambda: 0.0)
        text = to_openmetrics(report["timeline"])
        assert text.startswith("# TYPE ") and text.endswith("# EOF\n")
        assert 'scope="run"' in text
        html = build_dashboard_html(report)
        assert html.startswith("<!DOCTYPE html>") and "<svg" in html

    def test_cli_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        report = tmp_path / "r.json"
        tl = tmp_path / "tl.jsonl"
        dash = tmp_path / "d.html"
        om = tmp_path / "m.txt"
        rc = main([
            "run", "--trace", "web-vm", "--scheme", "POD",
            "--scale", "0.02", "--seed", "3", "--timeline", "1.0",
            "--spans", "--timeline-out", str(tl),
            "--report-out", str(report),
        ])
        assert rc == 0
        assert json.loads(report.read_text())["timeline"]["windows"]
        assert main(["timeline", "render", str(tl)]) == 0
        assert main(["timeline", "diff", str(tl), str(tl)]) == 0
        assert main([
            "timeline", "export", str(report), "--out", str(om)
        ]) == 0
        assert om.read_text().endswith("# EOF\n")
        assert main(["dash", str(report), "--out", str(dash)]) == 0
        assert "<svg" in dash.read_text()
        capsys.readouterr()

    def test_dashboard_requires_a_timeline(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            build_dashboard_html({"kind": "pod-run-report"})
