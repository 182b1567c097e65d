"""The scalar CDC transform, kept as a test-only reference.

Before the chunking kernel (``ChunkTransform.scan``) computed cut
candidates with vector adds and scanned only the candidates, the
transform rolled the hash one block at a time and tested the cut rules
at every block.  :class:`ReferenceChunkTransform` is that loop, Gear
and Rabin, verbatim in behaviour: the differential tests require the
kernel to produce the same effective fingerprints, the same carried
state and the same stats for any split of the stream.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.dedup.chunking import (
    GEAR_TABLE,
    OFFSET_BITS,
    RABIN_MULTIPLIER,
    RABIN_TABLE,
    RABIN_WINDOW,
    ChunkingConfig,
)

_MASK64 = (1 << 64) - 1
_RABIN_OUT_MULT = pow(RABIN_MULTIPLIER, RABIN_WINDOW, 1 << 64)


class ReferenceChunkTransform:
    """Streaming CDC, one block per loop iteration."""

    def __init__(self, config: ChunkingConfig) -> None:
        self.config = config
        self._hash = 0
        self._anchor: Optional[int] = None
        self._offset = 0
        self._since_cut = 0
        self._window: List[int] = []
        self.blocks_processed = 0
        self.chunks_formed = 0
        self.forced_cuts = 0

    def _roll(self, fp: int) -> int:
        """Advance the rolling hash by one block; returns it."""
        if self.config.algorithm == "rabin":
            token = RABIN_TABLE[fp & 0xFF]
            h = (self._hash * RABIN_MULTIPLIER + token) & _MASK64
            self._window.append(token)
            if len(self._window) > RABIN_WINDOW:
                h = (h - self._window.pop(0) * _RABIN_OUT_MULT) & _MASK64
        else:
            h = ((self._hash << 1) + GEAR_TABLE[fp & 0xFF]) & _MASK64
        self._hash = h
        return h

    def transform(self, fingerprints: Sequence[int]) -> Tuple[int, ...]:
        cfg = self.config
        out: List[int] = []
        for fp in fingerprints:
            if self._anchor is None:
                self._anchor = fp
                self._offset = 0
            h = self._roll(fp)
            out.append((self._anchor << OFFSET_BITS) | self._offset)
            self._offset += 1
            self._since_cut += 1
            if self._since_cut >= cfg.max_blocks:
                self.forced_cuts += 1
                self._anchor = None
                self._since_cut = 0
                self.chunks_formed += 1
            elif self._since_cut >= cfg.min_blocks and (h & cfg.mask) == 0:
                self._anchor = None
                self._since_cut = 0
                self.chunks_formed += 1
        self.blocks_processed += len(fingerprints)
        return tuple(out)

    def carried(self) -> Tuple[int, Optional[int], int, Tuple[int, ...]]:
        return self._hash, self._anchor, self._since_cut, tuple(self._window)

    def stats(self) -> "dict[str, object]":
        return {
            "algorithm": self.config.algorithm,
            "blocks_processed": self.blocks_processed,
            "chunks_formed": self.chunks_formed,
            "forced_cuts": self.forced_cuts,
            "min_blocks": self.config.min_blocks,
            "avg_blocks": self.config.avg_blocks,
            "max_blocks": self.config.max_blocks,
        }
