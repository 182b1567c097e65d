"""Byte-for-byte pins of the single-node object-path run reports.

One sha256 per case in ``golden_scheme_reports.sha256``: every
registered scheme plus SAR on the ``mail`` trace, POD with Gear
content-defined chunking, and POD over four tenant clones sharing one
dedup domain (``replay_traces``).  The write path is performance
critical and is rewritten for speed from time to time; any change in
what it decides shows up here as a changed report.  If a case fails,
find the behaviour change -- do NOT regenerate the digests without
understanding why they moved.
"""

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.core.sar import SARDedupe
from repro.dedup.chunking import ChunkingConfig
from repro.experiments import runner
from repro.obs.report import build_run_report
from repro.sim.replay import ReplayConfig, ReplayResult, replay_trace
from repro.storage.ssd import SsdParams
from repro.traces.synthetic import paper_traces

TRACE = "mail"
SCALE = 0.03
SEED = 7
GOLDEN = Path(__file__).with_name("golden_scheme_reports.sha256")

SCHEMES = (
    "Native",
    "Full-Dedupe",
    "iDedup",
    "Select-Dedupe",
    "POD",
    "I/O-Dedup",
    "Post-Process",
)


def _sha(result: ReplayResult) -> str:
    report = build_run_report(result, seed=SEED, scale=SCALE, clock=lambda: 0.0)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def _run(case: str) -> ReplayResult:
    if case in SCHEMES:
        return runner.run_single(TRACE, case, scale=SCALE, seed=SEED)
    if case == "SAR":
        spec = paper_traces()[TRACE]
        scheme = SARDedupe(
            runner.scheme_config_for(spec, SCALE, ssd_bytes=4 * 1024 * 1024)
        )
        trace = runner.get_trace(spec, scale=SCALE, seed=SEED)
        return replay_trace(trace, scheme, ReplayConfig(ssd_params=SsdParams()))
    if case == "POD+gear":
        return runner.run_single(
            TRACE, "POD", scale=SCALE, seed=SEED, chunking=ChunkingConfig()
        )
    if case == "POD-4-tenants":
        return runner.run_multi([TRACE], "POD", copies=4, scale=SCALE, seed=SEED)
    raise KeyError(case)


CASES = (*SCHEMES, "SAR", "POD+gear", "POD-4-tenants")


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
    assert _sha(_run(case)) == _golden()[case]
