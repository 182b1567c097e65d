"""Content-defined chunking (CDC) as a fingerprint transform.

The paper's POD system chunks at a fixed 4 KB block granularity.  Real
primary-storage deduplicators frequently use *content-defined*
chunking instead: a rolling hash (Gear or Rabin) over the data stream
picks chunk boundaries wherever the hash matches a mask, so an insert
near the front of a file shifts boundaries only locally and downstream
duplicate detection still works.

This simulator operates on per-block fingerprints rather than raw
bytes, so CDC is modelled as a *fingerprint transform* ahead of the
dedup planner:

* A rolling hash runs over the stream of write-chunk tokens (one
  byte-sized token, ``fp & 0xFF``, per block fingerprint).  The hash
  state persists across requests -- CDC boundaries are a property of
  the written stream, not of request framing.
* A cut is declared at a block whose hash matches the average-size
  mask, subject to ``min_blocks``/``max_blocks`` bounds (the classic
  normalised-chunking rules).
* Every block between two cuts belongs to one variable-size chunk.
  Its *effective* fingerprint is ``(anchor << OFFSET_BITS) | offset``,
  where ``anchor`` is the raw fingerprint of the chunk's first block
  and ``offset`` is the block's position inside the chunk.  Two blocks
  deduplicate iff they sit at the same offset of identically-anchored
  chunks -- the block-granularity shadow of "same content at the same
  chunk-relative position".  The encoding is injective, so the
  transform introduces no false duplicates.

The transform preserves request shape (``n`` fingerprints in, ``n``
out), which keeps the entire commit path untouched: schemes simply
see a different notion of chunk identity.

One kernel, :meth:`ChunkTransform.scan`, cuts any stretch of the
stream, as VectorCDC does (*Vectorized Sequence-Based Chunking*): the
cut test ``h & mask == 0`` reads only the low ``log2(avg_blocks)``
bits of the hash, so the candidate positions of a whole stretch come
from a few shifted NumPy adds (Gear, :func:`gear_hashes`) or
multiply-adds over the window (Rabin); a scan over the candidates
alone applies the min/max rules.  The rolling state is carried, so a
stream split at any point gives the same cuts and the same stats as
one call.  The per-request :meth:`ChunkTransform.transform` (the event
loop's) and the columnar driver's whole-stream
:meth:`ChunkTransform.columns` both call it, so columnar replay stays
bit-identical with chunking enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect_left
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "ChunkingConfig",
    "ChunkTransform",
    "gear_hashes",
    "GEAR_TABLE",
    "RABIN_TABLE",
    "RABIN_MULTIPLIER",
    "RABIN_WINDOW",
]

_MASK64 = (1 << 64) - 1

#: Bits reserved for the block offset inside a content-defined chunk;
#: bounds ``max_blocks`` (offsets must stay addressable).
OFFSET_BITS = 6
MAX_CHUNK_BLOCKS = 1 << OFFSET_BITS


def _splitmix64(x: int) -> int:
    """SplitMix64 step: the standard way to expand a seed into a
    high-quality 64-bit stream (used for the gear table)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _make_gear_table(seed: int = 0x504F44) -> Tuple[int, ...]:
    table = []
    x = seed
    for _ in range(256):
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        table.append(_splitmix64(x))
    return tuple(table)


#: The 256-entry Gear table (deterministic; shared by the byte-level
#: and block-token hashes so results are stable across runs).
GEAR_TABLE: Tuple[int, ...] = _make_gear_table()

_GEAR_NP = np.asarray(GEAR_TABLE, dtype=np.uint64)


def _make_rabin_table(seed: int = 0x504F44) -> Tuple[Tuple[int, ...], int]:
    """Rabin polynomial table + multiplier from the *same* splitmix64
    stream as the gear table: the first 256 draws are the gear table's
    (burned here so the two tables share a seed yet never an entry),
    the next 256 are the token polynomials, and one final draw (forced
    odd, hence invertible mod 2^64) is the rolling multiplier."""
    x = seed
    for _ in range(256):
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
    table = []
    for _ in range(256):
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        table.append(_splitmix64(x))
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    return tuple(table), _splitmix64(x) | 1


#: The Rabin token table and rolling multiplier (splitmix64 stream
#: continuation past the gear table; multiplier forced odd).
RABIN_TABLE, RABIN_MULTIPLIER = _make_rabin_table()

#: Rabin window: block tokens contributing to each boundary decision.
#: Finite memory is what makes cuts insert-invariant -- after WINDOW
#: identical tokens the hash re-synchronises regardless of prefix.
RABIN_WINDOW = 8

_RABIN_NP = np.asarray(RABIN_TABLE, dtype=np.uint64)

#: ``RABIN_MULTIPLIER ** RABIN_WINDOW mod 2^64`` -- the coefficient of
#: the token leaving the window.
_RABIN_OUT_MULT = pow(RABIN_MULTIPLIER, RABIN_WINDOW, 1 << 64)

#: ``RABIN_MULTIPLIER ** k mod 2^64`` for ``k < RABIN_WINDOW``: the
#: coefficient of the token ``k`` positions back.  The windowed hash
#: at a block is ``sum_k rabin[t_{i-k}] * M^k`` over the last
#: ``RABIN_WINDOW`` tokens of the stream.
_RABIN_POWERS = np.asarray(
    [pow(RABIN_MULTIPLIER, k, 1 << 64) for k in range(RABIN_WINDOW)], dtype=np.uint64
)


@dataclass(frozen=True)
class ChunkingConfig:
    """Content-defined chunking parameters, in 4 KB blocks.

    ``avg_blocks`` must be a power of two (it becomes the cut mask:
    a boundary is declared where ``hash % avg == 0``); bounds follow
    ``min_blocks <= avg_blocks <= max_blocks <= MAX_CHUNK_BLOCKS``.
    """

    min_blocks: int = 2
    avg_blocks: int = 4
    max_blocks: int = 16
    algorithm: str = "gear"

    def __post_init__(self) -> None:
        if self.min_blocks < 1:
            raise ConfigError("min_blocks must be >= 1")
        if self.max_blocks > MAX_CHUNK_BLOCKS:
            raise ConfigError(f"max_blocks must be <= {MAX_CHUNK_BLOCKS}")
        if not (self.min_blocks <= self.avg_blocks <= self.max_blocks):
            raise ConfigError("need min_blocks <= avg_blocks <= max_blocks")
        if self.avg_blocks & (self.avg_blocks - 1):
            raise ConfigError("avg_blocks must be a power of two")
        if self.algorithm not in ("gear", "rabin"):
            raise ConfigError(
                f"chunking algorithm must be 'gear' or 'rabin', "
                f"got {self.algorithm!r}"
            )

    @property
    def mask(self) -> int:
        return self.avg_blocks - 1

    @property
    def mask_bits(self) -> int:
        """Low hash bits the cut test reads (``log2(avg_blocks)``)."""
        return self.avg_blocks.bit_length() - 1


class ChunkTransform:
    """Streaming CDC over the write-chunk fingerprint stream.

    One instance per scheme.  Carries the rolling hash and the open
    chunk across calls (stream semantics): :meth:`transform` consumes
    one write request's fingerprints in arrival order and returns the
    same number of effective fingerprints; :meth:`columns` consumes a
    whole interned stream at once.
    """

    __slots__ = (
        "config",
        "_hash",
        "_anchor",
        "_since_cut",
        "_window",
        "blocks_processed",
        "chunks_formed",
        "forced_cuts",
    )

    def __init__(self, config: ChunkingConfig) -> None:
        self.config = config
        #: Rolling hash after the last block.
        self._hash = 0
        #: Key of the open chunk's first block (``None``: at a cut).
        self._anchor: Any = None
        #: Blocks in the open chunk.
        self._since_cut = 0
        #: Rabin only: token values inside the rolling window.
        self._window: List[int] = []
        self.blocks_processed = 0
        self.chunks_formed = 0
        self.forced_cuts = 0

    def _roll(self, tokens: Sequence[int]) -> List[int]:
        """Roll the hash block by block over ``tokens``; returns the
        positions whose hash passes the mask."""
        cfg = self.config
        mask = cfg.mask
        h = self._hash
        cands: List[int] = []
        if cfg.algorithm == "rabin":
            table = RABIN_TABLE
            window = self._window
            for i, token in enumerate(tokens):
                value = table[token]
                h = (h * RABIN_MULTIPLIER + value) & _MASK64
                window.append(value)
                if len(window) > RABIN_WINDOW:
                    h = (h - window.pop(0) * _RABIN_OUT_MULT) & _MASK64
                if not h & mask:
                    cands.append(i)
        else:
            gear = GEAR_TABLE
            for i, token in enumerate(tokens):
                h = ((h << 1) + gear[token]) & _MASK64
                if not h & mask:
                    cands.append(i)
        self._hash = h
        return cands

    def _candidates(self, tokens: Sequence[int]) -> List[int]:
        """Positions whose hash passes the mask; rolls the hash state
        past ``tokens``.  A stretch up to one hash word long (a
        request) rolls block by block; a longer one is vectorized."""
        n = len(tokens)
        if n <= 64:
            return self._roll(tokens.tolist() if isinstance(tokens, np.ndarray) else tokens)
        cfg = self.config
        tokens = np.asarray(tokens, dtype=np.uint8)
        if cfg.algorithm == "rabin":
            carried = len(self._window)
            ext = np.concatenate(
                (np.asarray(self._window, dtype=np.uint64), _RABIN_NP[tokens])
            )
            hashes = np.zeros(len(ext), dtype=np.uint64)
            for k in range(RABIN_WINDOW):
                hashes[k:] += ext[: len(ext) - k] * _RABIN_POWERS[k]
            hashes = hashes[carried:]
        else:
            hashes = gear_hashes(tokens, cfg.mask_bits)
            # The hash carried in shifts out of the low bits after
            # ``mask_bits`` blocks; until then it adds ``h << (i + 1)``.
            for i in range(cfg.mask_bits):
                hashes[i] += np.uint64((self._hash << (i + 1)) & cfg.mask)
        # Either hash forgets all but its last 64 tokens (Gear's word,
        # Rabin's window is shorter): rolling those alone from an empty
        # state gives the state carried on.
        self._hash = 0
        self._window = []
        self._roll(tokens[-64:].tolist())
        return np.flatnonzero((hashes & np.uint64(cfg.mask)) == 0).tolist()

    def scan(self, tokens: Sequence[int], keys: Sequence[Any]) -> List[int]:
        """Cut the next ``len(tokens)`` blocks of the stream.

        ``tokens[i]`` is block ``i``'s ``fp & 0xFF`` and ``keys[i]``
        the value a chunk opening at block ``i`` is anchored by.
        Returns the positions where chunks open, in order; the blocks
        before the first belong to the chunk left open by earlier
        calls (anchor and length as they were before the call).

        A chunk starting at ``s`` ends at the first candidate at or
        past ``s + min_blocks - 1``, or is forced at ``s + max_blocks
        - 1`` (a candidate there counts as forced), so the scan visits
        each chunk once and reads the candidate list by bisection.
        """
        cfg = self.config
        n = len(tokens)
        if n == 0:
            return []
        since = self._since_cut
        cands = self._candidates(tokens)
        ncand = len(cands)
        min_gap = cfg.min_blocks - 1
        max_gap = cfg.max_blocks - 1
        starts: List[int] = [0] if since == 0 else []
        start = -since
        p = forced = cuts = 0
        while True:
            end = start + max_gap
            p = bisect_left(cands, max(start + min_gap, 0), p)
            if p < ncand and cands[p] < end:
                end = cands[p]
            elif end >= n:
                break
            else:
                forced += 1
            cuts += 1
            start = end + 1
            if start == n:
                break
            starts.append(start)
        self.blocks_processed += n
        self.chunks_formed += cuts
        self.forced_cuts += forced
        if start == n:
            self._anchor = None
        elif starts:
            self._anchor = keys[start]
        self._since_cut = n - start
        return starts

    def transform(self, fingerprints: Sequence[int]) -> Tuple[int, ...]:
        """Effective fingerprints for one write request's blocks."""
        n = len(fingerprints)
        anchor = self._anchor
        offset = self._since_cut
        opening = iter(self.scan([fp & 0xFF for fp in fingerprints], fingerprints))
        nxt = next(opening, n)
        out: List[int] = []
        for i, fp in enumerate(fingerprints):
            if i == nxt:
                anchor = fp
                offset = 0
                nxt = next(opening, n)
            out.append((anchor << OFFSET_BITS) | offset)
            offset += 1
        return tuple(out)

    def columns(
        self, fp_ids: np.ndarray, pool: Sequence[int]
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The transform of a whole interned stream, as two columns.

        Block ``k`` is ``pool[fp_ids[k]]``; returns per block its
        chunk's anchor id (int32, into ``pool``) and its offset
        (uint8), so its effective fingerprint is
        ``(pool[anchor] << OFFSET_BITS) | offset``.  The stream must
        start at a cut (``None`` is returned otherwise: the open
        chunk's anchor is a value, not an id); the chunk left open at
        its end is carried by value, as :meth:`transform` carries it.
        """
        if self._since_cut:
            return None
        n = len(fp_ids)
        tokens = np.fromiter(
            (fp & 0xFF for fp in pool), dtype=np.uint8, count=len(pool)
        )[fp_ids]
        starts = self.scan(tokens, fp_ids)
        if self._anchor is not None:
            self._anchor = pool[int(self._anchor)]
        first = np.zeros(n, dtype=np.int64)
        first[starts] = starts
        np.maximum.accumulate(first, out=first)
        offsets = (np.arange(n, dtype=np.int64) - first).astype(np.uint8)
        return fp_ids[first].astype(np.int32), offsets

    def carried(self) -> Tuple[int, Any, int, Tuple[int, ...]]:
        """The stream state the next call starts from: the rolling
        hash, the open chunk's anchor (``None`` at a cut), its block
        count and the Rabin window (the inspection surface for checks
        that a split stream carries the same state as a whole one)."""
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


# ----------------------------------------------------------------------
# vectorized Gear
# ----------------------------------------------------------------------


def gear_hashes(
    data: Union[bytes, bytearray, np.ndarray], bits: int = 64
) -> np.ndarray:
    """Rolling Gear hash at every byte (token) position, vectorized,
    exact in its low ``bits`` bits.

    The Gear recurrence ``h_i = (h_{i-1} << 1) + gear[b_i] (mod 2^64)``
    has finite memory: position ``i`` only ever sees the last 64 bytes
    (older contributions shift out of the word).  Expanding the
    recurrence,

        ``h_i = sum_{k=0}^{63} gear[b_{i-k}] << k``

    which NumPy evaluates as shifted vector adds over the whole buffer
    instead of one Python-level loop iteration per byte.  Term ``k``
    only touches bits ``>= k``, so the low ``bits`` bits need only the
    first ``bits`` terms: the CDC kernel asks for ``log2(avg)``.
    """
    buf = np.frombuffer(bytes(data), dtype=np.uint8) if not isinstance(
        data, np.ndarray
    ) else data.astype(np.uint8, copy=False)
    n = len(buf)
    out = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return out
    g = _GEAR_NP[buf]
    for k in range(min(bits, 64, n)):
        # Contribution of the byte k positions back, shifted k left
        # (uint64 arithmetic wraps, matching the scalar recurrence).
        out[k:] += g[: n - k] << np.uint64(k)
    return out
