"""Tests of the replay benchmark itself, at reduced input sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import LAYERS, LayerTracer, _targets

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "benchmarks"))

from emit_bench import _fingerprint  # noqa: E402  (the repo's bit-identity fingerprint)
from repro.sim.batch import DEFAULT_BATCH_SIZE  # noqa: E402
from repro.sim.replay import ReplayConfig, replay_trace, replay_traces  # noqa: E402

#: Reduced input sizes, per workload.
SMALL = {"pod-tenants": 0.005, "native-telemetry": 0.03, "cluster-quorum": 0.01}


def _small(name: str, seed: int = 3) -> workloads.Inputs:
    return workloads.WORKLOADS[name].input(seed, 0, SMALL[name])


def test_pod_tenants_columnar_path_matches_object_path():
    inputs = _small("pod-tenants")
    columnar = inputs.replay(inputs.fresh_system())
    obj = replay_traces(inputs.traces, inputs.build(), workloads.POD_TENANTS_ARRAY, batch_size=None)
    assert _fingerprint(columnar) == _fingerprint(obj)
    assert columnar.volumes == obj.volumes


def test_native_telemetry_matches_columnar_and_object_paths():
    inputs = _small("native-telemetry")
    (trace,) = inputs.traces
    armed = inputs.replay(inputs.fresh_system())
    assert armed.timeline is not None  # telemetry keeps it on the object path
    columnar = replay_trace(trace, inputs.build(), ReplayConfig(), batch_size=DEFAULT_BATCH_SIZE)
    obj = replay_trace(trace, inputs.build(), ReplayConfig(), batch_size=None)
    assert _fingerprint(columnar) == _fingerprint(obj) == _fingerprint(armed)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_is_correct_and_exact_per_seed(name):
    first = run.measure(name, seed=5, seconds=0, trace=False, scale=SMALL[name])
    again = run.measure(name, seed=5, seconds=0, trace=False, scale=SMALL[name])
    other = run.measure(name, seed=6, seconds=0, trace=False, scale=SMALL[name])
    assert first["correct"] and first["failed"] == 0 and first["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in first["metrics"].values())
    simulated = [k for k in expected if k.startswith("sim_")] + ["writes_issued_pct", "capacity_blocks"]
    for key in simulated:
        assert first["metrics"][key] == again["metrics"][key]
    assert first["metrics"]["sim_mean_ms"] != other["metrics"]["sim_mean_ms"]


def test_traced_run_reports_every_layer_and_sums_to_replay_time():
    out = run.measure("cluster-quorum", seed=2, seconds=0, trace=True, scale=SMALL["cluster-quorum"])
    assert out["correct"]
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    layers = sum(metrics[f"{layer}_s"] for layer in LAYERS)
    assert layers + metrics["sim.driver_self_s"] == pytest.approx(metrics["trace.replay_s"])
    for key in ("cluster.directory_s", "cluster.route_s", "baselines.plan_s",
                "storage.disk_service_s", "cluster.rpcs", "jobs.steps_committed"):
        assert metrics[key] > 0, key


def test_tracer_restores_every_entry_point():
    before = [(owner, name, vars(owner).get(name)) for owner, name, _ in _targets()]
    with LayerTracer():
        pass
    assert [(owner, name, vars(owner).get(name)) for owner, name, _ in _targets()] == before


def test_check_reports_a_missing_completion():
    inputs = _small("native-telemetry")
    result = inputs.replay(inputs.fresh_system())
    assert workloads.check(result, inputs) == []
    inputs.metered[0] += 1
    assert workloads.check(result, inputs)


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "pod-tenants", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
