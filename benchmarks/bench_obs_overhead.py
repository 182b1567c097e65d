"""Cost of the observability layer on the hot replay path.

The design contract (docs/observability.md): with tracing *off* every
instrumentation site costs one attribute read plus one integer
compare, so an un-instrumented replay and a replay with an attached
``OFF``-level recorder must run at the same speed -- the assertion
here allows <5% median slowdown of the event loop's replay.  The baseline replay includes every
telemetry hook site (sampler/tracer pointer guards), so the off-path
contract covers the timeline/span/SLO instrumentation too.  A second
(informational, printed) set of measurements shows what REQUEST/
CHUNK-level recording and armed timeline+span+SLO telemetry cost,
which is allowed to be expensive: you only pay for what you watch.
Timeline+SLO without spans also runs on the columnar batch driver;
its row is measured against the unarmed columnar replay and asserted:
the median armed replay may cost at most ``MAX_COLUMNAR_ARMED_RATIO``
times the median unarmed one (telemetry stays on at a bounded cost).
Both bounded rows time their pair the same way (:func:`_paired`):
alternating rounds in process CPU time, and the bound applies to the
median of the per-round ratios.  Every figure here is CPU time.

Runnable two ways::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -q
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from typing import Callable, List, Tuple

import pytest

from repro.baselines.base import SchemeConfig
from repro.core.pod import POD
from repro.jobs import JobsConfig, ScrubberSpec
from repro.obs import TraceLevel, TraceRecorder
from repro.obs.slo import SloObjective, SloPolicy
from repro.obs.timeline import TimelineConfig
from repro.sim.batch import DEFAULT_BATCH_SIZE
from repro.sim.replay import ReplayConfig, replay_trace
from repro.traces.synthetic import WEB_VM, generate_trace

#: Replay repeats per informational row (median of 5).
REPEATS = 5
TRACE = generate_trace(WEB_VM, scale=0.05, seed=1234)
#: Bound on OFF-recorder / no-recorder event-loop replay CPU time - 1
#: (median per-round ratio of ``BOUNDED_ROUNDS`` alternating rounds).
MAX_OFF_OVERHEAD = 0.05
#: Bound on armed timeline+SLO / unarmed columnar replay CPU time
#: (median per-round ratio of ``BOUNDED_ROUNDS`` alternating rounds),
#: with margin above the 0.94-1.11 that twenty runs of the 15-round
#: ratio of medians read on a shared 2-core x86-64 VM.
MAX_COLUMNAR_ARMED_RATIO = 1.2
#: Alternating rounds of each bounded row (~0.1 s per replay).  At 15
#: rounds the off-level ratio still crossed its 5% bound in about one
#: run in ten on a shared 2-core VM, against a median near +0.5%.
BOUNDED_ROUNDS = 45


def _scheme() -> POD:
    return POD(
        SchemeConfig(logical_blocks=TRACE.logical_blocks, memory_bytes=256 * 1024)
    )


#: Armed-telemetry configuration for the informational measurement:
#: 1 s windows, span tracing, and a small latency SLO all at once.
TELEMETRY = ReplayConfig(
    timeline=TimelineConfig(window=1.0),
    spans=True,
    slo=SloPolicy(objectives=(
        SloObjective(name="wr", metric="latency", threshold=0.02,
                     op="write", target=0.9),
    )),
)

#: The same timeline + SLO without spans: eligible for the columnar
#: batch driver (spans still force the object event loop).
COLUMNAR_TELEMETRY = dataclasses.replace(TELEMETRY, spans=False)

#: Armed leased-jobs configuration for the informational measurement:
#: two workers plus a capped background scrub pass.  The jobs-*off*
#: path has zero cost by construction (``config.jobs is None`` is the
#: only new branch on the baseline replay, covered by the <5% off-path
#: contract below); this row shows what running the subsystem costs.
JOBS = ReplayConfig(
    jobs=JobsConfig(scrub=ScrubberSpec(region_blocks=4096, interval=0.05,
                                       regions=50)),
)


def _time_replay(
    recorder, config: ReplayConfig = ReplayConfig(), batch_size=None
) -> float:
    scheme = _scheme()
    t0 = time.process_time()
    replay_trace(TRACE, scheme, config, recorder=recorder, batch_size=batch_size)
    return time.process_time() - t0


def _median_runtime(
    make_recorder, config: ReplayConfig = ReplayConfig(), batch_size=None
) -> float:
    return statistics.median(
        _time_replay(make_recorder(), config, batch_size) for _ in range(REPEATS)
    )


def _paired(
    first: Callable[[], float], second: Callable[[], float]
) -> Tuple[float, float, float]:
    """Median times of two timed replays over ``BOUNDED_ROUNDS`` rounds,
    and the median of their per-round ratio (second / first).

    The two alternate (each goes first in every other round) and are
    timed in process CPU time, so that a neighbour's load does not
    land on one side; a round's ratio compares replays run back to
    back, so a load that comes and goes between rounds cancels too.
    """
    sides = (first, second)
    times: Tuple[List[float], List[float]] = ([], [])
    for r in range(BOUNDED_ROUNDS):
        for k in (0, 1) if r % 2 == 0 else (1, 0):
            times[k].append(sides[k]())
    return (
        statistics.median(times[0]),
        statistics.median(times[1]),
        statistics.median(b / a for a, b in zip(*times)),
    )


def measure() -> dict:
    """Median replay CPU times: the two bounded pairs (no recorder vs
    OFF recorder on the event loop; unarmed vs timeline+SLO on the
    columnar driver) and the informational rows."""
    # Warm-up run: JIT-free Python still benefits from warmed caches
    # (allocator arenas, branch-predictable dict layouts).
    _time_replay(None)
    out: dict = {}
    out["baseline"], out["off"], off_ratio = _paired(
        lambda: _time_replay(None),
        lambda: _time_replay(TraceRecorder(level=TraceLevel.OFF)),
    )
    out["off_overhead"] = off_ratio - 1.0
    out["columnar"], out["columnar_telemetry"], out["columnar_armed_ratio"] = _paired(
        lambda: _time_replay(None, batch_size=DEFAULT_BATCH_SIZE),
        lambda: _time_replay(None, COLUMNAR_TELEMETRY, DEFAULT_BATCH_SIZE),
    )
    out.update(
        request=_median_runtime(lambda: TraceRecorder(level=TraceLevel.REQUEST)),
        chunk=_median_runtime(lambda: TraceRecorder(level=TraceLevel.CHUNK)),
        telemetry=_median_runtime(lambda: None, TELEMETRY),
        jobs=_median_runtime(lambda: None, JOBS),
    )
    return out


@pytest.fixture(scope="module")
def measured() -> dict:
    return measure()


def test_tracing_off_overhead_below_5pct(measured):
    m = measured
    assert m["off_overhead"] < MAX_OFF_OVERHEAD, (
        f"OFF-level recorder costs {m['off_overhead'] * 100:.1f}% "
        f"(baseline {m['baseline'] * 1e3:.1f} ms, off {m['off'] * 1e3:.1f} ms); "
        f"the contract is <{MAX_OFF_OVERHEAD * 100:.0f}%"
    )


def test_columnar_timeline_slo_cost_bounded(measured):
    m = measured
    assert m["columnar_armed_ratio"] <= MAX_COLUMNAR_ARMED_RATIO, (
        f"timeline+SLO on the columnar driver costs "
        f"{m['columnar_armed_ratio']:.2f}x the unarmed replay "
        f"(armed {m['columnar_telemetry'] * 1e3:.1f} ms, "
        f"unarmed {m['columnar'] * 1e3:.1f} ms); "
        f"the bound is {MAX_COLUMNAR_ARMED_RATIO:.2f}x"
    )


def main() -> None:  # pragma: no cover - manual entry point
    m = measure()
    print(f"requests per replay : {len(TRACE)}")
    print(f"baseline (no rec)   : {m['baseline'] * 1e3:8.1f} ms CPU")
    print(f"recorder level off  : {m['off'] * 1e3:8.1f} ms "
          f"({m['off_overhead'] * +100:+.1f}%)")
    print(f"recorder level req  : {m['request'] * 1e3:8.1f} ms "
          f"({(m['request'] / m['baseline'] - 1) * 100:+.1f}%)")
    print(f"recorder level chunk: {m['chunk'] * 1e3:8.1f} ms "
          f"({(m['chunk'] / m['baseline'] - 1) * 100:+.1f}%)")
    print(f"timeline+spans+slo  : {m['telemetry'] * 1e3:8.1f} ms "
          f"({(m['telemetry'] / m['baseline'] - 1) * 100:+.1f}%)")
    print(f"leased jobs + scrub : {m['jobs'] * 1e3:8.1f} ms "
          f"({(m['jobs'] / m['baseline'] - 1) * 100:+.1f}%)")
    print(f"columnar driver     : {m['columnar'] * 1e3:8.1f} ms")
    print(f"timeline+slo, columnar driver: {m['columnar_telemetry'] * 1e3:8.1f} ms "
          f"({(m['columnar_armed_ratio'] - 1) * 100:+.1f}% "
          f"vs unarmed columnar)")
    status = "OK" if m["off_overhead"] < MAX_OFF_OVERHEAD else "FAIL"
    print(f"off-level contract (<{MAX_OFF_OVERHEAD * 100:.0f}%): {status}")
    ok = m["columnar_armed_ratio"] <= MAX_COLUMNAR_ARMED_RATIO
    print(f"columnar armed bound (<={MAX_COLUMNAR_ARMED_RATIO:.2f}x): "
          f"{'OK' if ok else 'FAIL'}")


if __name__ == "__main__":  # pragma: no cover
    main()
