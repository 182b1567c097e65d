"""Property-based tests for Map-table refcount consistency."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dedup.map_table import MapTable
from repro.storage.allocator import RegionMap
from tests.helpers import clear_mapping

LOGICAL = 64


def fresh_table():
    return MapTable(RegionMap(LOGICAL, 32, 8, 8))


ops = st.lists(
    st.tuples(
        st.sampled_from(["set", "clear"]),
        st.integers(min_value=0, max_value=LOGICAL - 1),  # lba
        st.integers(min_value=0, max_value=LOGICAL + 31),  # pba
    ),
    max_size=200,
)


class TestMapTableProperties:
    @given(ops=ops)
    @settings(max_examples=80)
    def test_refcounts_match_reality(self, ops):
        """The refcount of every PBA equals the number of explicit
        entries pointing at it, at every step."""
        t = fresh_table()
        model = {}
        for op, lba, pba in ops:
            if op == "set":
                t.set_mapping(lba, pba)
                if pba == lba:
                    model.pop(lba, None)
                else:
                    model[lba] = pba
            else:
                clear_mapping(t, lba)
                model.pop(lba, None)
            # refcount oracle
            from collections import Counter

            counts = Counter(model.values())
            for p in set(list(counts) + [pba]):
                assert t.refs(p) == counts.get(p, 0)
            assert len(t) == len(model)

    @given(ops=ops)
    @settings(max_examples=80)
    def test_translate_matches_model(self, ops):
        t = fresh_table()
        model = {}
        for op, lba, pba in ops:
            if op == "set":
                t.set_mapping(lba, pba)
                if pba == lba:
                    model.pop(lba, None)
                else:
                    model[lba] = pba
            else:
                clear_mapping(t, lba)
                model.pop(lba, None)
        for lba in range(LOGICAL):
            assert t.translate(lba) == model.get(lba, lba)

    @given(ops=ops)
    @settings(max_examples=80)
    def test_nvram_counts_entries(self, ops):
        t = fresh_table()
        for op, lba, pba in ops:
            if op == "set":
                t.set_mapping(lba, pba)
            else:
                clear_mapping(t, lba)
            assert t.nvram.entries == len(t)
            assert t.nvram.peak_entries >= t.nvram.entries

    @given(ops=ops)
    @settings(max_examples=80)
    def test_choose_write_target_is_safe(self, ops):
        """The chosen in-place target is never a block some *other*
        LBA resolves to."""
        t = fresh_table()
        for op, lba, pba in ops:
            if op == "set":
                t.set_mapping(lba, pba)
            else:
                clear_mapping(t, lba)
        for lba in range(0, LOGICAL, 7):
            target = t.choose_write_target(lba)
            if target is None:
                continue
            for other in range(LOGICAL):
                if other != lba:
                    assert t.translate(other) != target

    @given(ops=ops, lbas=st.sets(st.integers(min_value=0, max_value=LOGICAL - 1)))
    @settings(max_examples=50)
    def test_live_pbas_counts_shared_once(self, ops, lbas):
        t = fresh_table()
        for op, lba, pba in ops:
            if op == "set":
                t.set_mapping(lba, pba)
            else:
                clear_mapping(t, lba)
        live = t.live_pbas(lbas)
        assert live == {t.translate(l) for l in lbas}
        assert len(live) <= len(lbas)
