"""The generator's draw kernels against the draws they replaced.

Each kernel must return the same draw from the same generator state as
the ``Generator.choice`` / full-table form kept in
``reference_draws.py``: equal values, and an equal bit-generator state
afterwards, so every later draw of a trace is unchanged too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.traces.synthetic import (
    CLASSES,
    WEB_VM,
    TraceSpec,
    _generate,
    _GeneratorState,
    generate_trace,
)
from repro.traces.workload import SizeDistribution, ZipfChooser
from tests.properties.test_prop_tracegen import trace_specs
from tests.traces.reference_draws import (
    ReferenceGeneratorState,
    ReferenceSizes,
    ReferenceZipfChooser,
    reference_class,
)
from tests.traces.test_golden_traces import trace_digest


def _both(spec: TraceSpec):
    """Generate ``spec`` with the kernels and with the reference draws."""
    out = []
    for state_cls in (_GeneratorState, ReferenceGeneratorState):
        rng = np.random.default_rng(spec.seed)
        trace = _generate(state_cls(spec, rng))
        out.append((trace, rng.bit_generator.state))
    return out


@given(spec=trace_specs())
@settings(max_examples=60, deadline=None)
def test_generator_matches_reference_draws(spec):
    (fast, fast_state), (ref, ref_state) = _both(spec)
    assert fast.records == ref.records
    assert trace_digest([fast]) == trace_digest([ref])
    assert fast_state == ref_state


@pytest.mark.parametrize("scale", [0.02, 0.1])
def test_paper_spec_matches_reference_draws(scale):
    (fast, fast_state), (ref, ref_state) = _both(WEB_VM.scaled(scale))
    assert trace_digest([fast]) == trace_digest([ref])
    assert fast_state == ref_state


def test_generate_trace_is_the_kernel_loop():
    spec = WEB_VM.scaled(0.02)
    (fast, _), _ = _both(spec)
    assert trace_digest([generate_trace(WEB_VM, scale=0.02)]) == trace_digest([fast])


# ----------------------------------------------------------------------
# categorical draws
# ----------------------------------------------------------------------


@st.composite
def normalised_tables(draw):
    """A size table whose probabilities sum to 1 within ``choice``'s tolerance."""
    sizes = draw(st.lists(st.integers(1, 256), min_size=1, max_size=8, unique=True))
    raw = [draw(st.floats(0.0, 1.0)) for _ in sizes]
    if sum(raw) == 0.0:
        raw[0] = 1.0
    total = sum(raw)
    return {s: r / total for s, r in zip(sizes, raw)}


@given(table=normalised_tables(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_size_draw_matches_choice(table, seed):
    dist = SizeDistribution.of(table)
    ref = ReferenceSizes(dist)
    fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fast = [dist.draw(fast_rng) for _ in range(64)]
    slow = [ref.draw(ref_rng) for _ in range(64)]
    assert fast == slow
    assert all(type(v) is int for v in fast)
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


@given(
    raw=st.lists(st.floats(0.0, 1.0), min_size=len(CLASSES), max_size=len(CLASSES)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_class_draw_matches_choice(raw, seed):
    if sum(raw) == 0.0:
        raw[0] = 1.0
    total = sum(raw)
    probs = {c: r / total for c, r in zip(CLASSES, raw)}
    spec = TraceSpec(
        name="classes",
        n_requests=1,
        warmup_requests=0,
        logical_blocks=4096,
        write_ratio=0.5,
        write_sizes={1: 1.0},
        read_sizes={1: 1.0},
        class_probs=probs,
        p_same_lba=0.5,
    )
    fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    state = _GeneratorState(spec, fast_rng)
    fast = [state.draw_class() for _ in range(64)]
    slow = [reference_class(ref_rng, [probs[c] for c in CLASSES]) for _ in range(64)]
    assert fast == slow
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


# ----------------------------------------------------------------------
# tables choice would reject mid-generation
# ----------------------------------------------------------------------

OFF_SUM = 0.9995  # within validation's 1e-3, outside choice's sqrt(eps)


class FixedUniform:
    """A stand-in generator whose ``random()`` returns one chosen double."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


def test_off_sum_size_table_is_normalised():
    """The CDF is divided by its last entry, as ``choice`` divides it,
    so a table ``choice`` rejects draws in proportion."""
    dist = SizeDistribution.of({1: 0.5, 4: 0.4995})
    with pytest.raises(ValueError):  # what the replaced draw did
        ReferenceSizes(dist).draw(np.random.default_rng(0))
    edge = 0.5 / OFF_SUM
    assert dist.draw(FixedUniform(np.nextafter(edge, 0.0))) == 1
    assert dist.draw(FixedUniform(edge)) == 4  # side="right": ties go up
    assert dist.draw(FixedUniform(np.nextafter(1.0, 0.0))) == 4


def test_off_sum_tables_generate():
    spec = TraceSpec(
        name="off-sum",
        n_requests=400,
        warmup_requests=100,
        logical_blocks=8192,
        write_ratio=0.7,
        write_sizes={1: 0.5, 4: 0.3, 8: 0.1995},
        read_sizes={1: 0.6, 8: 0.3995},
        class_probs={"unique": 0.3, "full": 0.4, "partial_seq": 0.1, "partial_scat": 0.1995},
        p_same_lba=0.5,
        seed=5,
    )
    assert sum(spec.class_probs.values()) == pytest.approx(OFF_SUM)
    trace = generate_trace(spec)
    assert len(trace) == 500
    assert any(rec.is_write for rec in trace.records)


@pytest.mark.parametrize(
    "table", [{1: 1.2, 2: -0.2}, {1: float("nan"), 2: 1.0}, {1: 0.4, 2: 0.4}]
)
def test_malformed_size_tables_rejected(table):
    with pytest.raises(TraceError):
        SizeDistribution.of(table)


def test_negative_class_probability_rejected():
    with pytest.raises(TraceError, match="non-negative"):
        TraceSpec(
            name="neg",
            n_requests=10,
            warmup_requests=0,
            logical_blocks=4096,
            write_ratio=0.5,
            write_sizes={1: 1.0},
            read_sizes={1: 1.0},
            class_probs={"unique": 0.6, "full": 0.6, "partial_seq": -0.2, "partial_scat": 0.0},
            p_same_lba=0.5,
        )


# ----------------------------------------------------------------------
# Zipf table growth
# ----------------------------------------------------------------------


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 1.2, 1.5])
@given(sizes=st.lists(st.integers(1, 3000), min_size=1, max_size=25))
@settings(max_examples=30, deadline=None)
def test_zipf_cdf_after_growth_equals_fresh_table(s, sizes):
    z = ZipfChooser(1, s)
    for n in sorted(sizes) + sizes:  # grow, then jump around
        z.resize(n)
        assert z.n == n
        assert z.cdf.tobytes() == ReferenceZipfChooser(n, s).cdf.tobytes()


@pytest.mark.parametrize("s", [0.0, 0.9, 1.25])
def test_zipf_grown_by_one_draws_like_reference(s):
    """The generator's growth pattern: one rank per written segment."""
    fast, ref = ZipfChooser(1, s), ReferenceZipfChooser(1, s)
    fast_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    for n in range(1, 1500):
        fast.resize(n)
        ref.resize(n)
        assert fast.draw(fast_rng) == ref.draw(ref_rng)
    assert np.array_equal(fast.draw_many(fast_rng, 500), ref.draw_many(ref_rng, 500))
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


def test_zipf_ties_go_to_the_next_rank():
    """``side="right"``: a uniform equal to a CDF entry picks the next rank."""
    z = ZipfChooser(2, s=0.0)
    assert z.cdf.tolist() == [0.5, 1.0]
    assert z.draw(FixedUniform(np.nextafter(0.5, 0.0))) == 0
    assert z.draw(FixedUniform(0.5)) == 1
