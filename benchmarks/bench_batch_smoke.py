"""CI smoke: the columnar batch driver must beat the object path.

The full performance story lives in bench_replay_throughput.py and the
committed BENCH_replay.json trajectory (emit_bench.py); this file is
the cheap regression tripwire CI runs on every push.  The measured
advantage on the no-dedup fast path is about 3x (2.8-3.7x over five
runs on a shared 2-core x86_64 VM; it was about 6x until the object
loop moved onto the same disk service kernel and got faster); the
assertion here demands 2x, low enough that a noisy shared runner
cannot flake it, high enough that losing the columnar fast path (a
silent fallback to materialised planning) fails loudly.

Bit-identity is separately pinned by tests/sim/test_batch_replay.py;
this bench only re-checks the headline metric so a speedup obtained by
diverging results can never pass.

Runnable two ways::

    PYTHONPATH=src python benchmarks/bench_batch_smoke.py
    PYTHONPATH=src python -m pytest benchmarks/bench_batch_smoke.py -q
"""

from __future__ import annotations

import time
from typing import Optional, Union

from repro.baselines.base import SchemeConfig
from repro.baselines.native import Native
from repro.sim.batch import DEFAULT_BATCH_SIZE
from repro.sim.replay import ReplayResult, replay_trace
from repro.traces.columnar import ColumnarTrace
from repro.traces.format import Trace
from repro.traces.synthetic import WEB_VM, generate_trace

REPEATS = 3
MIN_SPEEDUP = 2.0
TRACE = generate_trace(WEB_VM, scale=0.05, seed=1234)
CTRACE = ColumnarTrace.from_trace(TRACE)


def _replay(
    trace: Union[Trace, ColumnarTrace], batch_size: Optional[int]
) -> ReplayResult:
    scheme = Native(
        SchemeConfig(logical_blocks=TRACE.logical_blocks, memory_bytes=256 * 1024)
    )
    return replay_trace(trace, scheme, batch_size=batch_size)


def _best(trace: Union[Trace, ColumnarTrace], batch_size: Optional[int]) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _replay(trace, batch_size)
        best = min(best, time.perf_counter() - t0)
    return best


def test_columnar_beats_object() -> None:
    obj = _best(TRACE, None)
    col = _best(CTRACE, DEFAULT_BATCH_SIZE)
    speedup = obj / col
    n = len(TRACE.records)
    print(
        f"object {n / obj:9.0f} req/s  columnar {n / col:9.0f} req/s  "
        f"speedup {speedup:5.2f}x (floor {MIN_SPEEDUP}x)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"columnar driver only {speedup:.2f}x over the object path "
        f"(floor {MIN_SPEEDUP}x) -- did the fast path silently fall back?"
    )


if __name__ == "__main__":
    test_columnar_beats_object()
