"""Byte-for-byte pins of the single-node configs the columnar driver
does not take.

One sha256 per case in ``golden_object_reports.sha256``, taken as
``tests/baselines/test_golden_schemes.py`` takes its digests: a
``build_run_report(..., clock=lambda: 0.0)`` run report serialised
with sorted keys.  Every case here runs one node through the event
loop (faults, leased jobs, spans, a degraded array on the reference
``batch_size=None`` path, a trace recorder), so any change to how
that loop arrives, plans, issues, completes, scrubs or recovers shows
up as a changed report.  The recorder case also hashes the recorded
event stream, which is where its per-volume tags live.

If a case fails, find the behaviour change -- do NOT regenerate the
digests without understanding why they moved.  Print the digests of
the tree on ``PYTHONPATH`` with
``python tests/sim/test_golden_object_reports.py``.
"""

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional

import pytest

from repro.experiments import runner
from repro.faults import FaultPlan
from repro.jobs import JobsConfig
from repro.jobs.plan import AdmissionSpec, ScrubberSpec
from repro.obs.events import TraceLevel
from repro.obs.report import build_run_report
from repro.obs.timeline import TimelineConfig
from repro.obs.trace import TraceRecorder
from repro.sim.replay import ReplayConfig, ReplayResult, replay_trace
from repro.traces.synthetic import paper_traces

SCALE = 0.02
SEED = 1
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
GOLDEN = Path(__file__).with_name("golden_object_reports.sha256")

#: A member failure on the example plan's disk and cadence, rebuilt as
#: a leased job (faults plus jobs).  Admission is tight enough to
#: throttle a tenant, so ``admission.stall`` spans are pinned too.
MEMBER_FAILURE = {
    "seed": 5,
    "member_failure": {
        "disk": 2,
        "time": 30.0,
        "rows_per_batch": 64,
        "interval": 0.02,
        "capacity_aware": True,
    },
}


def _sha(result: ReplayResult, recorder: Optional[TraceRecorder] = None) -> str:
    doc: Dict[str, Any] = build_run_report(
        result, seed=SEED, scale=SCALE, recorder=recorder, clock=lambda: 0.0
    )
    if recorder is not None:
        doc = {"report": doc, "events": [e.as_dict() for e in recorder.events]}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _observed(trace: str, scheme: str, config: ReplayConfig) -> ReplayResult:
    return runner.execute(runner.RunSpec(
        trace, scheme, replay=config, seed=SEED, scale=SCALE,
    ))


def _run(case: str) -> str:
    if case == "faults-example":
        # The CI fault smoke (all five fault classes, oracle and
        # invariant checks on), with spans and a timeline so the
        # recovery spans, admission stalls and fault bands are pinned.
        plan = FaultPlan.load(str(EXAMPLES / "faults.json"))
        return _sha(
            _observed(
                "web-vm",
                "Select-Dedupe",
                ReplayConfig(
                    faults=plan.with_seed(7),
                    check_invariants=True,
                    sanitize_every=500,
                    spans=True,
                    timeline=TimelineConfig(),
                ),
            )
        )
    if case == "jobs-example-2copy":
        # Scrubber and admission on two tenants; spans and a timeline
        # pin the single-node span and gauge forms.
        jobs = JobsConfig.load(str(EXAMPLES / "jobs.json"))
        return _sha(
            runner.execute(runner.RunSpec(
                ["mail"], "POD", tenants=runner.Tenants(copies=2),
                replay=ReplayConfig(
                    jobs=jobs, spans=True, timeline=TimelineConfig()
                ),
                seed=SEED, scale=SCALE,
            ))
        )
    if case == "member-failure-leased-rebuild":
        return _sha(
            _observed(
                "web-vm",
                "POD",
                ReplayConfig(
                    faults=FaultPlan.from_dict(MEMBER_FAILURE),
                    jobs=JobsConfig(
                        admission=AdmissionSpec(rate_blocks=1000.0, burst_blocks=64.0)
                    ),
                    spans=True,
                ),
            )
        )
    if case == "failed-disk-reference":
        spec = paper_traces()["mail"]
        trace = runner.get_trace(spec, scale=SCALE, seed=SEED)
        scheme = runner.build_scheme("POD", spec, scale=SCALE)
        return _sha(
            replay_trace(trace, scheme, ReplayConfig(failed_disk=1), batch_size=None)
        )
    if case == "recorder-request-2copy":
        recorder = TraceRecorder(TraceLevel.REQUEST, max_events=None)
        result = runner.execute(runner.RunSpec(
            ["web-vm"], "POD", tenants=runner.Tenants(copies=2), seed=SEED,
            scale=SCALE,
        ), recorder=recorder)
        return _sha(result, recorder)
    if case == "scrub-degraded":
        jobs = JobsConfig(
            scrub=ScrubberSpec(start=1.0, region_blocks=4096, interval=0.05)
        )
        return _sha(
            _observed("web-vm", "POD", ReplayConfig(failed_disk=1, jobs=jobs))
        )
    raise KeyError(case)


CASES = (
    "faults-example",
    "jobs-example-2copy",
    "member-failure-leased-rebuild",
    "failed-disk-reference",
    "recorder-request-2copy",
    "scrub-degraded",
)


def _golden() -> Dict[str, str]:
    out: Dict[str, str] = {}
    for line in GOLDEN.read_text().splitlines():
        if line.strip():
            digest, case = line.split(maxsplit=1)
            out[case] = digest
    return out


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_report_matches_committed_sha(case):
    assert _run(case) == _golden()[case]


if __name__ == "__main__":
    for name in CASES:
        print(_run(name), name)
