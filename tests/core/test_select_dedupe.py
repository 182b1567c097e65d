"""Behavioural tests for Select-Dedupe's write path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import SchemeConfig
from repro.core.categorize import Category, categorize_write
from repro.core.select_dedupe import SelectDedupe
from repro.sim.request import IORequest
from tests.helpers import translate_many
from tests.conftest import Oracle


@pytest.fixture
def scheme():
    return SelectDedupe(
        SchemeConfig(logical_blocks=4096, memory_bytes=256 * 1024, index_fraction=0.5)
    )


class TestFullyRedundantWrites:
    def test_small_redundant_write_eliminated(self, scheme):
        o = Oracle(scheme)
        o.write(0, [111])
        planned = o.write(100, [111])  # same content elsewhere
        assert planned.eliminated is True
        assert planned.volume_ops == []
        assert scheme.write_requests_removed == 1
        o.check()

    def test_same_location_rewrite_eliminated(self, scheme):
        o = Oracle(scheme)
        o.write(0, [111, 112])
        planned = o.write(0, [111, 112])
        assert planned.eliminated is True
        assert len(scheme.map_table) == 0  # same-location: no map entry
        o.check()

    def test_sequential_duplicate_run_eliminated(self, scheme):
        o = Oracle(scheme)
        o.write(0, [1, 2, 3, 4])
        planned = o.write(500, [1, 2, 3, 4])
        assert planned.eliminated
        assert scheme.category_counts[Category.FULLY_REDUNDANT] == 1
        # LBAs 500..503 must now resolve to the donor blocks 0..3.
        assert translate_many(scheme.map_table, range(500, 504)) == [0, 1, 2, 3]
        o.check()

    def test_eliminated_write_pays_only_fingerprint_delay(self, scheme):
        o = Oracle(scheme)
        o.write(0, [9])
        planned = o.write(50, [9])
        assert planned.delay == pytest.approx(scheme.config.fingerprint_delay)


class TestScatteredPartialWrites:
    def test_scattered_partial_bypassed(self, scheme):
        o = Oracle(scheme)
        o.write(0, [1])
        o.write(2, [2])
        # 4-block write with two isolated duplicates -> category 2.
        planned = o.write(100, [1, 50, 2, 51])
        assert not planned.eliminated
        assert scheme.category_counts[Category.SCATTERED_PARTIAL] == 1
        # Everything written in place: one contiguous extent, no map
        # entries -- reads stay sequential.
        data_ops = [op for op in planned.volume_ops]
        assert len(data_ops) == 1 and data_ops[0].nblocks == 4
        assert len(scheme.map_table) == 0
        o.check()


class TestSequentialPartialWrites:
    def test_category3_dedupes_run_writes_rest(self, scheme):
        o = Oracle(scheme)
        o.write(0, [1, 2, 3, 4])
        planned = o.write(200, [1, 2, 3, 90, 91])
        assert scheme.category_counts[Category.SEQUENTIAL_PARTIAL] == 1
        written = sum(op.nblocks for op in planned.volume_ops)
        assert written == 2  # only the unique tail hits the disk
        assert translate_many(scheme.map_table, range(200, 203)) == [0, 1, 2]
        o.check()


class TestConsistencyRules:
    def test_referenced_block_never_overwritten(self, scheme):
        o = Oracle(scheme)
        o.write(0, [1])      # donor at home 0
        o.write(100, [1])    # LBA 100 -> PBA 0
        o.write(0, [2])      # new content for LBA 0: must redirect
        assert scheme.map_table.translate(100) == 0
        assert scheme.content.read(0) == 1  # referenced data intact
        assert scheme.map_table.translate(0) != 0
        o.check()

    def test_log_block_reclaimed_when_dereferenced(self, scheme):
        o = Oracle(scheme)
        o.write(0, [1])
        o.write(100, [1])    # pin home 0
        o.write(0, [2])      # LBA 0 redirected to a log block
        log_pba = scheme.map_table.translate(0)
        assert scheme.log_alloc.is_allocated(log_pba)
        o.write(100, [3])    # unpin home 0
        o.write(0, [4])      # home free again: write home, free log
        assert scheme.map_table.translate(0) == 0
        assert not scheme.log_alloc.is_allocated(log_pba)
        o.check()

    def test_stale_intra_request_duplicate_falls_back(self, scheme):
        o = Oracle(scheme)
        o.write(0, [7])
        # One request that overwrites the donor AND tries to dedupe
        # onto it: chunk 0 rewrites LBA 0 with new content, and a
        # second request dedupes onto the now-stale index entry.
        o.write(0, [8])            # invalidates fp 7 at PBA 0
        planned = o.write(50, [7])  # index miss now -> unique write
        assert not planned.eliminated
        o.check()

    def test_integrity_after_mixed_workload(self, scheme, rng):
        o = Oracle(scheme)
        fps = list(range(1, 40))
        for step in range(300):
            lba = int(rng.integers(0, 1000))
            n = int(rng.integers(1, 6))
            content = [int(rng.choice(fps)) for _ in range(n)]
            o.write(lba, content)
            if step % 5 == 0:
                o.read(lba, n)
        o.check()


class TestStats:
    def test_category_counts_in_stats(self, scheme):
        o = Oracle(scheme)
        o.write(0, [1])
        o.write(10, [1])
        s = scheme.stats()
        assert s["category_1_fully_redundant"] == 1
        assert s["scheme"] == "Select-Dedupe"


def _decide(pbas, threshold=3):
    """Select-Dedupe's choice for a write whose probe returns ``pbas``
    (PBA ``p`` holds fingerprint ``1000 + p``), and the change in the
    category counts."""
    scheme = SelectDedupe(
        SchemeConfig(logical_blocks=64, memory_bytes=64 * 1024, select_threshold=threshold)
    )
    scheme.process(IORequest.write(time=0.0, lba=0, fingerprints=range(1000, 1010)), 0.0)
    before = scheme.category_counts
    seen = []
    scheme.decision_hook = lambda request, probed, chosen: seen.append((probed, chosen))
    fps = [2000 + i if p is None else 1000 + p for i, p in enumerate(pbas)]
    scheme.process(IORequest.write(time=1.0, lba=32, fingerprints=fps), 1.0)
    ((probed, chosen),) = seen
    assert list(probed) == list(pbas)
    return chosen, {c: n - before[c] for c, n in scheme.category_counts.items()}


class TestOnePassDecision:
    """The one-pass Figure-5 decision is categorize_write's."""

    @settings(max_examples=200, deadline=None)
    @given(
        pbas=st.lists(st.one_of(st.none(), st.integers(0, 9)), min_size=1, max_size=12),
        threshold=st.integers(1, 5),
    )
    def test_matches_categorize_write(self, pbas, threshold):
        chosen, counted = _decide(pbas, threshold)
        decision = categorize_write(pbas, threshold)
        assert chosen == set(decision.dedupe_chunks)
        assert counted == {c: int(c is decision.category) for c in Category}

    @pytest.mark.parametrize(
        "pbas, category, chosen",
        [
            # A run of exactly the threshold (3) is deduplicated.
            ([None, 7, 8, 9, None], Category.SEQUENTIAL_PARTIAL, {1, 2, 3}),
            # Two runs that only sum to the threshold are not.
            ([7, 8, None, 2], Category.SCATTERED_PARTIAL, set()),
            ([7, 8, 2], Category.SCATTERED_PARTIAL, set()),
            # Fully redundant, non-contiguous targets: runs decide.
            ([0, 1, 2, 5, 6, 7], Category.SEQUENTIAL_PARTIAL, set(range(6))),
            ([7, 9], Category.SCATTERED_PARTIAL, set()),
            ([9], Category.FULLY_REDUNDANT, {0}),
        ],
    )
    def test_boundaries(self, pbas, category, chosen):
        assert _decide(pbas) == (chosen, {c: int(c is category) for c in Category})
