"""The CDC kernel against the scalar transform it replaced.

``ChunkTransform.scan`` computes cut candidates with vector adds and
scans only those; :class:`~tests.dedup.reference_chunking.ReferenceChunkTransform`
rolls the hash and tests the cut rules block by block.  Hypothesis
drives both algorithms over random configs and streams, cuts the
stream at random points for the kernel (the reference takes it in one
call), and requires the same effective fingerprints, the same carried
state (hash, open chunk, Rabin window) and the same stats -- through
the per-request :meth:`~repro.dedup.chunking.ChunkTransform.transform`
and through the driver's whole-stream
:meth:`~repro.dedup.chunking.ChunkTransform.columns`.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dedup.chunking import MAX_CHUNK_BLOCKS, OFFSET_BITS, ChunkingConfig, ChunkTransform

from tests.dedup.reference_chunking import ReferenceChunkTransform


@st.composite
def configs(draw: Any) -> ChunkingConfig:
    avg = 1 << draw(st.integers(0, 5))
    return ChunkingConfig(
        min_blocks=draw(st.integers(1, avg)),
        avg_blocks=avg,
        max_blocks=draw(st.integers(avg, MAX_CHUNK_BLOCKS)),
        algorithm=draw(st.sampled_from(["gear", "rabin"])),
    )


#: Fingerprints from a small alphabet repeat tokens (and so hashes);
#: full-width ones exercise values past int64.
fingerprints = st.one_of(st.integers(0, 40), st.integers(0, 1 << 64))
streams = st.lists(fingerprints, max_size=300)


def _state(t: Any) -> Tuple[Any, ...]:
    return t.carried(), t.stats()


def _pieces(stream: List[int], cuts: List[int]) -> List[List[int]]:
    bounds = [0] + sorted(min(c, len(stream)) for c in cuts) + [len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


#: A short piece (rolled block by block) leaves a chunk open for a long
#: one (vectorized) to carry on, for both algorithms.
LONG_STREAM = [(k * 0x9E3779B97F4A7C15) & ((1 << 64) - 1) for k in range(200)]


@settings(max_examples=300, deadline=None)
@given(config=configs(), stream=streams, cuts=st.lists(st.integers(0, 300), max_size=8))
@example(config=ChunkingConfig(), stream=LONG_STREAM, cuts=[7])
@example(config=ChunkingConfig(algorithm="rabin"), stream=LONG_STREAM, cuts=[7, 150])
def test_transform_matches_scalar_reference_for_any_split(
    config: ChunkingConfig, stream: List[int], cuts: List[int]
) -> None:
    kernel = ChunkTransform(config)
    reference = ReferenceChunkTransform(config)
    want = reference.transform(stream)
    got: Tuple[int, ...] = ()
    for piece in _pieces(stream, cuts):
        got += kernel.transform(piece)
    assert got == want
    assert _state(kernel) == _state(reference)


@settings(max_examples=200, deadline=None)
@given(
    config=configs(),
    stream=streams,
    tail=st.lists(fingerprints, max_size=40),
)
def test_columns_match_scalar_reference(
    config: ChunkingConfig, stream: List[int], tail: List[int]
) -> None:
    """The whole interned stream as columns, then per-request calls
    carrying on from where the columns left the stream."""
    pool = list(dict.fromkeys(stream))
    intern = {fp: k for k, fp in enumerate(pool)}
    fp_ids = np.array([intern[fp] for fp in stream], dtype=np.int64)
    kernel = ChunkTransform(config)
    reference = ReferenceChunkTransform(config)
    cols = kernel.columns(fp_ids, pool)
    assert cols is not None
    anchors, offsets = cols
    assert anchors.dtype == np.int32 and offsets.dtype == np.uint8
    got = tuple(
        (pool[a] << OFFSET_BITS) | o for a, o in zip(anchors.tolist(), offsets.tolist())
    )
    assert got == reference.transform(stream)
    assert _state(kernel) == _state(reference)
    assert kernel.transform(tail) == reference.transform(tail)
    assert _state(kernel) == _state(reference)


def test_columns_need_a_cut() -> None:
    """A chunk left open by earlier calls is anchored by a value the
    id columns cannot name: the columns refuse rather than guess."""
    kernel = ChunkTransform(ChunkingConfig(min_blocks=4, avg_blocks=4, max_blocks=8))
    kernel.transform((1,))
    assert kernel.columns(np.array([0], dtype=np.int64), [5]) is None
    assert kernel.stats()["blocks_processed"] == 1
