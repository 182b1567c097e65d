"""Byte-for-byte pins of the synthetic traces every replay starts from.

One sha256 per case in ``golden_traces.sha256``: each paper spec at
several seeds and scales, the salted and cloned tenant families built
from it, and its interned columns.  The generator's random draws are
rewritten for speed from time to time; they must keep returning the
same draw from the same generator state, so any change in what the
generator emits shows up here as a changed digest.  If a case fails,
find the behaviour change -- do NOT regenerate the digests without
understanding why they moved.
"""

import hashlib
from pathlib import Path
from typing import Dict, Iterable, List

import pytest

from repro.traces.columnar import ColumnarTrace
from repro.traces.format import Trace
from repro.traces.synthetic import (
    FP_FAMILY_STRIDE,
    clone_tenants,
    generate_trace,
    paper_traces,
    salt_fingerprints,
)

GOLDEN = Path(__file__).with_name("golden_traces.sha256")

SPECS = ("web-vm", "homes", "mail")
SEEDS = (0, 1, 7)
SCALES = (0.02, 0.05, 0.1)
#: The scale the benchmark's single-volume workload generates at,
#: with each spec's own default seed.
LARGE_SCALE = 0.25
#: Tenant families and columns are pinned on one small base per spec.
FAMILY_SEED = 7
FAMILY_SCALE = 0.02


def trace_digest(traces: Iterable[Trace]) -> str:
    """sha256 over every field of every record, in order.

    ``repr`` keeps both the exact float and the Python type of each
    field, so a record that compares equal but holds a NumPy scalar
    where an ``int`` was would still move the digest.
    """
    h = hashlib.sha256()
    for trace in traces:
        h.update(repr((trace.name, trace.logical_blocks, trace.warmup_count)).encode())
        for rec in trace.records:
            h.update(
                repr((rec.time, rec.op.value, rec.lba, rec.nblocks, rec.fingerprints)).encode()
            )
    return h.hexdigest()


def columns_digest(cols: ColumnarTrace) -> str:
    """sha256 over the columns' dtypes and bytes and the interned pool."""
    h = hashlib.sha256()
    h.update(repr((cols.name, cols.logical_blocks, cols.warmup_count)).encode())
    for column in (cols.times, cols.ops, cols.lbas, cols.nblocks, cols.fp_offsets, cols.fp_ids):
        h.update(column.dtype.str.encode())
        h.update(column.tobytes())
    h.update(repr(cols.pool).encode())
    return h.hexdigest()


def _family_base(spec_name: str) -> Trace:
    return generate_trace(paper_traces()[spec_name], seed=FAMILY_SEED, scale=FAMILY_SCALE)


def _digest(case: str) -> str:
    kind, spec_name, *rest = case.split("/")
    spec = paper_traces()[spec_name]
    if kind == "gen":
        seed_s, scale_s = rest
        seed = None if seed_s == "default" else int(seed_s)
        return trace_digest([generate_trace(spec, seed=seed, scale=float(scale_s))])
    if kind == "salt":
        family = SPECS.index(spec_name) + 1
        salted = salt_fingerprints(
            _family_base(spec_name), family * FP_FAMILY_STRIDE, name=f"{spec_name}/salted"
        )
        return trace_digest([salted])
    if kind == "clone":
        return trace_digest(clone_tenants(_family_base(spec_name), 4, divergence=0.3, seed=11))
    if kind == "columnar":
        return columns_digest(ColumnarTrace.from_trace(_family_base(spec_name)))
    raise KeyError(case)


def _cases() -> List[str]:
    cases = [
        f"gen/{spec}/{seed}/{scale}" for spec in SPECS for seed in SEEDS for scale in SCALES
    ]
    cases += [f"gen/{spec}/default/{LARGE_SCALE}" for spec in SPECS]
    for kind in ("salt", "clone", "columnar"):
        cases += [f"{kind}/{spec}" for spec in SPECS]
    return cases


CASES = tuple(_cases())


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
def test_trace_matches_committed_sha(case):
    assert _digest(case) == _golden()[case]


if __name__ == "__main__":
    # Print the golden file for the tree on PYTHONPATH (review the
    # diff before committing a changed digest).
    for case in CASES:
        print(_digest(case), case)
