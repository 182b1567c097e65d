"""Golden fault determinism: same plan + seed => bit-identical report.

The whole point of a *deterministic* fault model is that a failure run
can be replayed exactly -- for debugging, for regression pinning, for
CI.  This test runs the shipped example plan (``examples/faults.json``,
the same file the CI fault-smoke step uses) twice and demands the two
run reports serialise to the same bytes.
"""

import json
from pathlib import Path

from repro.baselines.base import SchemeConfig
from repro.core.select_dedupe import SelectDedupe
from repro.faults import FaultPlan
from repro.obs.report import build_run_report
from repro.sim.replay import ReplayConfig, replay_trace
from repro.traces.synthetic import WEB_VM, generate_trace

EXAMPLE_PLAN = Path(__file__).resolve().parents[2] / "examples" / "faults.json"

_TRACE = generate_trace(WEB_VM, scale=0.02)


def run_report(fault_seed=7):
    plan = FaultPlan.load(str(EXAMPLE_PLAN))
    scheme = SelectDedupe(
        SchemeConfig(
            logical_blocks=_TRACE.logical_blocks, memory_bytes=128 * 1024
        )
    )
    result = replay_trace(
        _TRACE,
        scheme,
        ReplayConfig(faults=plan.with_seed(fault_seed), check_invariants=True),
    )
    report = build_run_report(
        result,
        seed=0,
        scale=0.02,
        config={"faults": str(EXAMPLE_PLAN), "fault_seed": fault_seed},
        clock=lambda: 0.0,
    )
    return result, report


def canonical(report):
    return json.dumps(report, sort_keys=True)


class TestExamplePlan:
    def test_example_plan_arms_all_five_fault_classes(self):
        plan = FaultPlan.load(str(EXAMPLE_PLAN))
        assert not plan.is_empty()
        assert plan.latent_sector_errors is not None
        assert plan.fail_slow
        assert plan.member_failure is not None
        assert plan.nvram_loss
        assert plan.index_corruption

    def test_example_plan_round_trips_through_json(self):
        plan = FaultPlan.load(str(EXAMPLE_PLAN))
        assert FaultPlan.from_dict(plan.as_dict()) == plan


class TestGoldenDeterminism:
    def test_same_fault_seed_yields_bit_identical_report(self):
        result_a, report_a = run_report(fault_seed=7)
        result_b, report_b = run_report(fault_seed=7)
        assert canonical(report_a) == canonical(report_b)
        # the faults actually fired (this is not vacuous determinism)
        faults = report_a["faults"]
        assert faults["counters"]["lse_injected"] > 0
        assert faults["counters"]["member_failures"] == 1
        assert faults["counters"]["nvram_losses"] == 1
        assert faults["oracle"]["mismatches"] == 0
        assert result_a.sanitizer is not None
        assert result_a.sanitizer.violations == []

    def test_seed_override_reaches_the_report(self):
        _, report = run_report(fault_seed=11)
        assert report["faults"]["seed"] == 11

    def test_report_is_json_serialisable(self):
        _, report = run_report(fault_seed=7)
        json.loads(canonical(report))
