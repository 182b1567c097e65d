"""Content-defined chunking: config validation, the streaming
fingerprint transform, and the vectorized Gear hash.  The kernel is
checked against the scalar loop in ``test_chunking_kernel_differential``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dedup.chunking import (
    GEAR_TABLE,
    MAX_CHUNK_BLOCKS,
    OFFSET_BITS,
    RABIN_MULTIPLIER,
    RABIN_TABLE,
    RABIN_WINDOW,
    ChunkingConfig,
    ChunkTransform,
    gear_hashes,
)
from repro.errors import ConfigError

_MASK64 = (1 << 64) - 1


class TestConfig:
    def test_defaults_valid(self):
        cfg = ChunkingConfig()
        assert cfg.min_blocks <= cfg.avg_blocks <= cfg.max_blocks
        assert cfg.mask == cfg.avg_blocks - 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_blocks": 0},
            {"avg_blocks": 3},  # not a power of two
            {"min_blocks": 8, "avg_blocks": 4},
            {"avg_blocks": 32, "max_blocks": 16},
            {"max_blocks": MAX_CHUNK_BLOCKS + 1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ChunkingConfig(**kwargs)

    def test_gear_table_shape(self):
        assert len(GEAR_TABLE) == 256
        assert all(0 <= g <= _MASK64 for g in GEAR_TABLE)
        # Deterministic: the table is part of the trace-compatibility
        # contract (changing it changes every CDC dedup decision).
        assert GEAR_TABLE[0] == gear_hashes(bytes([0]))[0]

    def test_rabin_table_shape(self):
        assert len(RABIN_TABLE) == 256
        assert all(0 <= g <= _MASK64 for g in RABIN_TABLE)
        # Same splitmix64 stream as the gear table, continued past it:
        # the two tables must never share an entry.
        assert not set(RABIN_TABLE) & set(GEAR_TABLE)
        # The multiplier is odd (invertible mod 2^64), so the rolling
        # hash never collapses.
        assert RABIN_MULTIPLIER % 2 == 1

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            ChunkingConfig(algorithm="buzhash")


fp_streams = st.lists(
    st.lists(st.integers(min_value=0, max_value=1 << 64), min_size=1, max_size=12),
    max_size=12,
)


class TestTransform:
    @given(stream=fp_streams)
    @settings(max_examples=150, deadline=None)
    def test_shape_preserved_and_deterministic(self, stream):
        a = ChunkTransform(ChunkingConfig())
        b = ChunkTransform(ChunkingConfig())
        for request in stream:
            out_a = a.transform(tuple(request))
            assert len(out_a) == len(request)
            assert out_a == b.transform(tuple(request))
        assert a.stats() == b.stats()
        assert a.blocks_processed == sum(len(r) for r in stream)

    @given(stream=fp_streams)
    @settings(max_examples=150, deadline=None)
    def test_encoding_decomposes(self, stream):
        """Every effective fingerprint is (anchor << OFFSET_BITS) |
        offset with the anchor being a real input fingerprint, offsets
        consecutive from zero within a chunk, and chunk lengths bounded
        by max_blocks.  Injectivity follows: (anchor, offset) pairs
        decode uniquely because offset < 2**OFFSET_BITS."""
        cfg = ChunkingConfig()
        t = ChunkTransform(cfg)
        flat = [fp for request in stream for fp in request]
        out = [
            eff for request in stream for eff in t.transform(tuple(request))
        ]
        prev_offset = None
        for k, eff in enumerate(out):
            anchor, offset = eff >> OFFSET_BITS, eff & (MAX_CHUNK_BLOCKS - 1)
            assert offset < cfg.max_blocks
            if offset == 0:
                assert anchor == flat[k]  # chunk opens at its own block
            else:
                assert prev_offset is not None and offset == prev_offset + 1
            prev_offset = offset

    def test_request_framing_does_not_move_cuts(self):
        """CDC boundaries depend on the written stream, not on how it
        is split into requests."""
        fps = tuple(range(100, 140))
        whole = ChunkTransform(ChunkingConfig()).transform(fps)
        t = ChunkTransform(ChunkingConfig())
        split = t.transform(fps[:7]) + t.transform(fps[7:23]) + t.transform(fps[23:])
        assert split == whole

    def test_forced_cut_at_max_blocks(self):
        # min == avg == max: the forced-cut rule fires before the mask
        # ever gets a chance, so every chunk is exactly max_blocks long.
        cfg = ChunkingConfig(min_blocks=4, avg_blocks=4, max_blocks=4)
        t = ChunkTransform(cfg)
        out = t.transform(tuple([7] * 12))
        offsets = [eff & (MAX_CHUNK_BLOCKS - 1) for eff in out]
        assert offsets == [0, 1, 2, 3] * 3  # every chunk exactly max len


class TestRabinTransform:
    """The Rabin variant satisfies the same contract as the Gear path
    (round-trip shape/determinism, framing and cut invariance) while
    making different cut decisions."""

    @given(stream=fp_streams)
    @settings(max_examples=150, deadline=None)
    def test_shape_preserved_and_deterministic(self, stream):
        a = ChunkTransform(ChunkingConfig(algorithm="rabin"))
        b = ChunkTransform(ChunkingConfig(algorithm="rabin"))
        for request in stream:
            out_a = a.transform(tuple(request))
            assert len(out_a) == len(request)
            assert out_a == b.transform(tuple(request))
        assert a.stats() == b.stats()
        assert a.blocks_processed == sum(len(r) for r in stream)

    @given(stream=fp_streams)
    @settings(max_examples=150, deadline=None)
    def test_encoding_decomposes(self, stream):
        cfg = ChunkingConfig(algorithm="rabin")
        t = ChunkTransform(cfg)
        flat = [fp for request in stream for fp in request]
        out = [
            eff for request in stream for eff in t.transform(tuple(request))
        ]
        prev_offset = None
        for k, eff in enumerate(out):
            anchor, offset = eff >> OFFSET_BITS, eff & (MAX_CHUNK_BLOCKS - 1)
            assert offset < cfg.max_blocks
            if offset == 0:
                assert anchor == flat[k]
            else:
                assert prev_offset is not None and offset == prev_offset + 1
            prev_offset = offset

    def test_request_framing_does_not_move_cuts(self):
        fps = tuple(range(100, 140))
        whole = ChunkTransform(ChunkingConfig(algorithm="rabin")).transform(fps)
        t = ChunkTransform(ChunkingConfig(algorithm="rabin"))
        split = t.transform(fps[:7]) + t.transform(fps[7:23]) + t.transform(fps[23:])
        assert split == whole

    def test_forced_cut_at_max_blocks(self):
        cfg = ChunkingConfig(min_blocks=4, avg_blocks=4, max_blocks=4,
                             algorithm="rabin")
        t = ChunkTransform(cfg)
        out = t.transform(tuple([7] * 12))
        offsets = [eff & (MAX_CHUNK_BLOCKS - 1) for eff in out]
        assert offsets == [0, 1, 2, 3] * 3

    def test_cut_invariance_after_insert(self):
        """The windowed hash has finite memory (RABIN_WINDOW tokens):
        an insert near the front perturbs boundaries only locally and
        downstream cut decisions re-synchronise -- the property that
        keeps duplicate detection alive across shifted streams."""
        import random

        rng = random.Random(7)
        stream = [rng.getrandbits(64) for _ in range(3000)]
        a = ChunkTransform(ChunkingConfig(algorithm="rabin")).transform(
            tuple(stream)
        )
        b = ChunkTransform(ChunkingConfig(algorithm="rabin")).transform(
            tuple(stream[:10] + [0xDEAD] + stream[10:])
        )
        anchors_a = [eff >> OFFSET_BITS for eff in a[-2000:]]
        anchors_b = [eff >> OFFSET_BITS for eff in b[-2000:]]
        assert anchors_a == anchors_b

    def test_differs_from_gear(self):
        """Same stream, different algorithm => different cut decisions
        (the tables share a seed stream but no entries)."""
        import random

        rng = random.Random(11)
        stream = tuple(rng.getrandbits(64) for _ in range(2000))
        gear = ChunkTransform(ChunkingConfig()).transform(stream)
        rabin = ChunkTransform(ChunkingConfig(algorithm="rabin")).transform(
            stream
        )
        assert gear != rabin

    def test_window_constant_sane(self):
        assert 1 < RABIN_WINDOW <= 64


class TestGearHashes:
    @given(data=st.binary(max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_recurrence(self, data):
        got = gear_hashes(data)
        h = 0
        for i, byte in enumerate(data):
            h = ((h << 1) + GEAR_TABLE[byte]) & _MASK64
            assert int(got[i]) == h

    def test_empty(self):
        assert len(gear_hashes(b"")) == 0

    @given(data=st.binary(max_size=200), bits=st.integers(min_value=0, max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_low_bits_exact_with_that_many_terms(self, data, bits):
        """The CDC kernel asks for log2(avg) terms: those bits are exact."""
        low = (1 << bits) - 1
        full = gear_hashes(data)
        got = gear_hashes(data, bits)
        assert [int(h) & low for h in got] == [int(h) & low for h in full]
