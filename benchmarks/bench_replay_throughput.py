"""End-to-end replay throughput per scheme: object vs columnar.

Measures how many trace requests per second the simulator sustains
for each scheme -- the practical limit on full-scale reproduction
runs.  Dedup schemes are usually *faster* to simulate than Native
because eliminated writes issue no disk ops.

Each scheme is benchmarked twice: through the classic object event
loop (``batch_size=None``) and through the columnar batch driver
(``repro.sim.batch``).  The columnar variant replays a pre-interned
:class:`~repro.traces.columnar.ColumnarTrace` -- column conversion is
a load-time cost, like parsing, and the committed BENCH_replay.json
trajectory (see emit_bench.py) reports both paths the same way.  The
two paths are bit-identical (tests/sim/test_batch_replay.py); only the
wall clock differs.
"""

import pytest

from repro.baselines.base import SchemeConfig
from repro.experiments.runner import SCHEME_CLASSES
from repro.sim.batch import DEFAULT_BATCH_SIZE
from repro.sim.replay import replay_trace
from repro.traces.columnar import ColumnarTrace
from repro.traces.synthetic import WEB_VM, generate_trace

TRACE = generate_trace(WEB_VM, scale=0.03)
CTRACE = ColumnarTrace.from_trace(TRACE)


def _scheme(scheme_name):
    return SCHEME_CLASSES[scheme_name](
        SchemeConfig(logical_blocks=TRACE.logical_blocks, memory_bytes=256 * 1024)
    )


@pytest.mark.parametrize("scheme_name", list(SCHEME_CLASSES))
def test_replay_throughput(benchmark, scheme_name):
    def run():
        return replay_trace(TRACE, _scheme(scheme_name), batch_size=None)

    result = benchmark(run)
    assert result.metrics.requests > 0


@pytest.mark.parametrize("scheme_name", list(SCHEME_CLASSES))
def test_replay_throughput_columnar(benchmark, scheme_name):
    def run():
        return replay_trace(
            CTRACE, _scheme(scheme_name), batch_size=DEFAULT_BATCH_SIZE
        )

    result = benchmark(run)
    assert result.metrics.requests > 0
