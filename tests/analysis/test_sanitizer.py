"""Corruption-injection tests: every POD invariant must actually fire.

Each test drives a healthy scheme, verifies the sanitizer finds it
clean, then surgically corrupts one internal structure and asserts the
matching invariant code is reported.  A sanitizer that never fires is
indistinguishable from no sanitizer.
"""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import (
    INVARIANT_CODES,
    InvariantViolationError,
    PodSanitizer,
    Violation,
    validate_dedupe_selection,
)
from repro.baselines.base import SchemeConfig
from repro.constants import BLOCK_SIZE
from repro.core.pod import POD
from repro.core.select_dedupe import SelectDedupe
from repro.sim.request import IORequest


def make_scheme(cls=POD):
    return cls(
        SchemeConfig(
            logical_blocks=4096,
            memory_bytes=64 * 1024,
            index_fraction=0.5,
        )
    )


def warm(scheme, *, dedupe=True):
    """Drive a few writes so every table holds real state.

    The second write repeats the first's fingerprints at another LBA,
    so the Map table gains redirections and refcounts > 0.
    """
    now = 0.0
    fps = [101, 102, 103, 104]
    for lba, chunk in ((0, fps), (512, fps if dedupe else [7, 8, 9, 10])):
        now += 1e-3
        scheme.process(
            IORequest.write(time=now, lba=lba, fingerprints=list(chunk)), now
        )
    now += 1e-3
    scheme.process(IORequest.read(time=now, lba=0, nblocks=4), now)
    return now


def check_codes(scheme):
    sanitizer = PodSanitizer(fail_fast=False)
    return {v.code for v in sanitizer.check_scheme(scheme, now=1.0)}


class TestCleanSchemes:
    def test_clean_after_workload(self, dedup_scheme):
        warm(dedup_scheme)
        assert check_codes(dedup_scheme) == set()

    def test_invariant_catalogue_is_stable(self):
        assert len(INVARIANT_CODES) == 11
        assert "INV-IDEDUP-THRESHOLD" in INVARIANT_CODES
        assert INVARIANT_CODES[-1] == "INV-REFS-DELTA"
        assert len(set(INVARIANT_CODES)) == len(INVARIANT_CODES)
        assert all(code.startswith("INV-") for code in INVARIANT_CODES)


class TestMapTableInvariants:
    def test_out_of_volume_target_fires_map_live(self):
        scheme = make_scheme()
        warm(scheme)
        entries, _refs = scheme.map_table.commit_state()
        entries[512] = scheme.regions.total_blocks + 7
        assert "INV-MAP-LIVE" in check_codes(scheme)

    def test_metadata_region_target_fires_map_live(self):
        scheme = make_scheme()
        warm(scheme)
        entries, _refs = scheme.map_table.commit_state()
        entries[512] = scheme.regions.swap_base
        assert "INV-MAP-LIVE" in check_codes(scheme)

    def test_dangling_content_fires_map_live(self):
        scheme = make_scheme()
        warm(scheme)
        # Redirect to a never-written home block: inside the volume,
        # but holding no content.
        entries, _refs = scheme.map_table.commit_state()
        entries[512] = scheme.regions.home_of(3999)
        assert "INV-MAP-LIVE" in check_codes(scheme)

    def test_identity_mapping_fires_map_minimal(self):
        scheme = make_scheme()
        warm(scheme)
        entries, _refs = scheme.map_table.commit_state()
        entries[512] = scheme.regions.home_of(512)
        assert "INV-MAP-MINIMAL" in check_codes(scheme)

    def test_inflated_refcount_fires(self):
        scheme = make_scheme()
        warm(scheme)
        _entries, refs = scheme.map_table.commit_state()
        pba = next(iter(refs))
        refs[pba] += 5
        assert "INV-REFCOUNT" in check_codes(scheme)

    def test_leaked_refcount_entry_fires(self):
        scheme = make_scheme()
        warm(scheme)
        _entries, refs = scheme.map_table.commit_state()
        refs[scheme.regions.home_of(2000)] = 2
        assert "INV-REFCOUNT" in check_codes(scheme)

    def test_missing_refcount_entry_fires(self):
        scheme = make_scheme()
        warm(scheme)
        _entries, refs = scheme.map_table.commit_state()
        pba = next(iter(refs))
        del refs[pba]
        assert "INV-REFCOUNT" in check_codes(scheme)


class TestIndexTableInvariants:
    def test_corrupted_reverse_map_fires_index_pba(self):
        scheme = make_scheme()
        warm(scheme)
        table = scheme.index_table
        fp = table.lru.keys_lru_order()[0]
        entry = table.lru.peek(fp)
        table._by_pba[entry.pba] = fp + 0xDEAD
        assert "INV-INDEX-PBA" in check_codes(scheme)

    def test_stale_reverse_claim_fires_index_pba(self):
        scheme = make_scheme()
        warm(scheme)
        scheme.index_table._by_pba[10**7] = 0xFEED
        assert "INV-INDEX-PBA" in check_codes(scheme)

    def test_duplicate_pba_claim_fires_index_pba(self):
        scheme = make_scheme()
        warm(scheme)
        table = scheme.index_table
        fps = table.lru.keys_lru_order()
        assert len(fps) >= 2
        # Two live fingerprints claiming the same physical block.
        table.lru.peek(fps[0]).pba = table.lru.peek(fps[1]).pba
        assert "INV-INDEX-PBA" in check_codes(scheme)

    def test_inflated_count_fires_index_count(self):
        scheme = make_scheme()
        warm(scheme)
        table = scheme.index_table
        fp = table.lru.keys_lru_order()[0]
        table.lru.peek(fp).count = 10**6
        assert "INV-INDEX-COUNT" in check_codes(scheme)

    def test_negative_count_fires_index_count(self):
        scheme = make_scheme()
        warm(scheme)
        table = scheme.index_table
        fp = table.lru.keys_lru_order()[0]
        table.lru.peek(fp).count = -1
        assert "INV-INDEX-COUNT" in check_codes(scheme)


class TestCacheInvariants:
    def test_partition_budget_breach_fires(self):
        scheme = make_scheme()
        warm(scheme)
        scheme.cache.index.capacity_bytes += 64
        assert "INV-CACHE-BUDGET" in check_codes(scheme)

    def test_ghost_complement_breach_fires(self):
        scheme = make_scheme()
        warm(scheme)
        scheme.cache.ghost_index.capacity_bytes += 1
        assert "INV-CACHE-BUDGET" in check_codes(scheme)

    def test_over_capacity_usage_fires(self):
        scheme = make_scheme()
        warm(scheme)
        cache = scheme.cache
        # Move read capacity to the index (the total stays put) until
        # the read cache holds one block more than it may.
        shift = cache.read.capacity_bytes - cache.read.used_bytes + BLOCK_SIZE
        cache.read.capacity_bytes -= shift
        cache.index.capacity_bytes += shift
        violations = PodSanitizer(fail_fast=False).check_scheme(scheme, now=1.0)
        assert any(
            v.code == "INV-CACHE-BUDGET" and v.message.startswith("read cache uses")
            for v in violations
        )

    def test_actual_ghost_overlap_fires_disjoint(self):
        scheme = make_scheme()
        warm(scheme)
        cache = scheme.cache
        resident = next(iter(cache.read), None)
        assert resident is not None
        cache.ghost_read._keys[resident] = BLOCK_SIZE
        assert "INV-CACHE-DISJOINT" in check_codes(scheme)

    def test_fixed_partition_checked_too(self):
        scheme = make_scheme(SelectDedupe)
        warm(scheme)
        scheme.cache.index.capacity_bytes += 64
        assert "INV-CACHE-BUDGET" in check_codes(scheme)


class TestNvramInvariants:
    def test_phantom_entries_fire(self):
        scheme = make_scheme()
        warm(scheme)
        scheme.nvram.add(5)
        assert "INV-NVRAM-MODEL" in check_codes(scheme)

    def test_peak_regression_fires(self):
        scheme = make_scheme()
        warm(scheme)
        assert len(scheme.map_table) > 0
        scheme.nvram._peak_entries = 0
        assert "INV-NVRAM-MODEL" in check_codes(scheme)


class TestCategorySequentialPolicy:
    def test_valid_category1_full_run(self):
        pbas = [100, 101, 102, 103]
        assert validate_dedupe_selection(pbas, {0, 1, 2, 3}, threshold=3) == []

    def test_valid_category3_run(self):
        pbas = [100, 101, 102, None, None]
        assert validate_dedupe_selection(pbas, {0, 1, 2}, threshold=3) == []

    def test_category2_bypass_is_valid(self):
        pbas = [100, None, 200, None]
        assert validate_dedupe_selection(pbas, set(), threshold=3) == []

    def test_chunk_without_duplicate_fires(self):
        pbas = [100, None]
        out = validate_dedupe_selection(pbas, {1}, threshold=3)
        assert [v.code for v in out] == ["INV-CAT-SEQ"]

    def test_out_of_range_chunk_fires(self):
        out = validate_dedupe_selection([100], {4}, threshold=3)
        assert [v.code for v in out] == ["INV-CAT-SEQ"]

    def test_sub_threshold_run_fires(self):
        pbas = [100, 101, None, 300, 301]
        out = validate_dedupe_selection(pbas, {0, 1, 3, 4}, threshold=3)
        assert {v.code for v in out} == {"INV-CAT-SEQ"}

    def test_non_sequential_targets_fire(self):
        # Indices consecutive but targets scattered on disk.
        pbas = [100, 500, 900, 42]
        out = validate_dedupe_selection(pbas, {0, 1, 2, 3}, threshold=3)
        assert {v.code for v in out} == {"INV-CAT-SEQ"}

    def test_scattered_ok_without_sequential_policy(self):
        # Full-Dedupe legitimately dedupes scattered chunks.
        pbas = [100, 500, 900, 42]
        out = validate_dedupe_selection(
            pbas, {0, 1, 2, 3}, threshold=3, sequential_policy=False
        )
        assert out == []

    def test_attach_catches_forged_decision_live(self):
        class Rigged(SelectDedupe):
            name = "Rigged"

            def _choose_dedupe(self, request, duplicate_pbas):
                super()._choose_dedupe(request, duplicate_pbas)
                # Forge a scattered sub-threshold dedupe set.
                return {
                    i for i, p in enumerate(duplicate_pbas) if p is not None
                }

        scheme = make_scheme(Rigged)
        sanitizer = PodSanitizer()
        sanitizer.attach(scheme)
        now = 1e-3
        scheme.process(
            IORequest.write(time=now, lba=0, fingerprints=[1, 2, 3, 4]), now
        )
        with pytest.raises(InvariantViolationError) as exc:
            # Only chunk 0 duplicates: a run of 1 < threshold 3.
            scheme.process(
                IORequest.write(time=2e-3, lba=512, fingerprints=[1, 9, 8, 7]),
                2e-3,
            )
        assert "INV-CAT-SEQ" in str(exc.value)
        assert sanitizer.stats.decisions_validated >= 1

    def test_attach_passes_honest_decisions(self):
        scheme = make_scheme()
        sanitizer = PodSanitizer()
        sanitizer.attach(scheme)
        warm(scheme)
        sanitizer.assert_clean(scheme, now=1.0)
        assert sanitizer.stats.violations_found == 0
        assert sanitizer.stats.decisions_validated > 0


class TestIDedupThresholdPolicy:
    """iDedup's spatial-locality rule has its own sanitizer policy:
    every run must reach ``idedup_threshold`` -- no category-1
    full-request exemption."""

    def test_full_request_exemption_off_fires(self):
        # A fully redundant 4-chunk request is legal for Select-Dedupe
        # (category 1) but illegal for iDedup with threshold 8.
        pbas = [100, 101, 102, 103]
        assert validate_dedupe_selection(pbas, {0, 1, 2, 3}, threshold=8) == []
        out = validate_dedupe_selection(
            pbas, {0, 1, 2, 3}, threshold=8,
            full_request_exemption=False, code="INV-IDEDUP-THRESHOLD",
        )
        assert {v.code for v in out} == {"INV-IDEDUP-THRESHOLD"}

    def test_long_run_passes_without_exemption(self):
        pbas = [100 + i for i in range(8)]
        out = validate_dedupe_selection(
            pbas, set(range(8)), threshold=8,
            full_request_exemption=False, code="INV-IDEDUP-THRESHOLD",
        )
        assert out == []

    def test_attach_enforces_idedup_threshold_live(self):
        from repro.baselines.idedup import IDedup

        class RiggedIDedup(IDedup):
            name = "RiggedIDedup"

            def _choose_dedupe(self, request, duplicate_pbas):
                # Forge: dedupe every known duplicate, ignoring the
                # sequence-length threshold.
                return {
                    i for i, p in enumerate(duplicate_pbas) if p is not None
                }

        scheme = make_scheme(RiggedIDedup)
        sanitizer = PodSanitizer()
        sanitizer.attach(scheme)
        now = 1e-3
        scheme.process(
            IORequest.write(time=now, lba=0, fingerprints=[1, 2, 3, 4]), now
        )
        with pytest.raises(InvariantViolationError) as exc:
            # Re-write 4 duplicate chunks: run of 4 < threshold 8 and
            # the full-request exemption must NOT apply.
            scheme.process(
                IORequest.write(time=2e-3, lba=512, fingerprints=[1, 2, 3, 4]),
                2e-3,
            )
        assert "INV-IDEDUP-THRESHOLD" in str(exc.value)

    def test_attach_passes_honest_idedup(self):
        from repro.baselines.idedup import IDedup

        scheme = make_scheme(IDedup)
        sanitizer = PodSanitizer()
        sanitizer.attach(scheme)
        now = 0.0
        fps = list(range(200, 216))  # 16-chunk sequential write
        for lba in (0, 1024):
            now += 1e-3
            scheme.process(
                IORequest.write(time=now, lba=lba, fingerprints=list(fps)), now
            )
        sanitizer.assert_clean(scheme, now=now)
        assert sanitizer.stats.violations_found == 0
        assert sanitizer.stats.decisions_validated >= 2


class TestSanitizerBehaviour:
    def test_assert_clean_raises_fail_fast(self):
        scheme = make_scheme()
        warm(scheme)
        scheme.nvram.add(3)
        sanitizer = PodSanitizer()
        with pytest.raises(InvariantViolationError) as exc:
            sanitizer.assert_clean(scheme, now=2.5)
        assert "INV-NVRAM-MODEL" in str(exc.value)
        assert all(v.t == 2.5 for v in exc.value.violations)

    def test_fail_fast_off_accumulates(self):
        scheme = make_scheme()
        warm(scheme)
        scheme.nvram.add(3)
        sanitizer = PodSanitizer(fail_fast=False)
        sanitizer.assert_clean(scheme, now=1.0)  # must not raise
        assert sanitizer.stats.violations_found > 0
        assert sanitizer.violations

    def test_summary_shape(self):
        sanitizer = PodSanitizer(fail_fast=False)
        scheme = make_scheme()
        warm(scheme)
        sanitizer.check_scheme(scheme)
        doc = sanitizer.summary()
        assert doc["checks_run"] == 1
        assert doc["violations_found"] == 0
        assert doc["invariants"] == list(INVARIANT_CODES)

    def test_violation_render(self):
        v = Violation("INV-REFCOUNT", "boom", t=1.25)
        assert "INV-REFCOUNT" in v.render() and "boom" in v.render()

    def test_checks_do_not_mutate_state(self):
        scheme = make_scheme()
        warm(scheme)
        before = (
            dict(scheme.map_table.mapping),
            dict(scheme.map_table.refcounts),
            scheme.cache.index.used_bytes,
            scheme.cache.read.used_bytes,
            scheme.nvram.entries,
        )
        PodSanitizer(fail_fast=False).check_scheme(scheme)
        after = (
            dict(scheme.map_table.mapping),
            dict(scheme.map_table.refcounts),
            scheme.cache.index.used_bytes,
            scheme.cache.read.used_bytes,
            scheme.nvram.entries,
        )
        assert before == after


class TestRefsDeltaInvariant:
    """INV-REFS-DELTA: windowed Map-table growth accounting."""

    def make_checked(self):
        scheme = make_scheme(SelectDedupe)
        now = warm(scheme)
        sanitizer = PodSanitizer(fail_fast=False)
        assert sanitizer.check_scheme(scheme, now) == []
        return scheme, sanitizer, now

    def test_legal_growth_between_checks_is_clean(self):
        scheme, sanitizer, now = self.make_checked()
        scheme.process(
            IORequest.write(
                time=now + 1e-3, lba=1024, fingerprints=[101, 102, 103, 104]
            ),
            now + 1e-3,
        )
        assert sanitizer.check_scheme(scheme, now + 1.0) == []

    def test_entries_from_nowhere_fire(self):
        scheme, sanitizer, now = self.make_checked()
        # forge a redirection without any write-path operation: the
        # entry count grows, the accounting counters do not.
        pba = scheme.map_table.translate(512)  # live, deduped target
        entries, refs = scheme.map_table.commit_state()
        entries[999] = pba
        refs[pba] += 1
        codes = {v.code for v in sanitizer.check_scheme(scheme, now + 1.0)}
        assert "INV-REFS-DELTA" in codes
        msgs = [
            v.message
            for v in sanitizer.violations
            if v.code == "INV-REFS-DELTA"
        ]
        assert any("from nowhere" in m for m in msgs)

    def test_backwards_counters_fire(self):
        scheme, sanitizer, now = self.make_checked()
        scheme.write_blocks_deduped -= 1
        codes = {v.code for v in sanitizer.check_scheme(scheme, now + 1.0)}
        assert "INV-REFS-DELTA" in codes

    def test_first_check_only_sets_baseline(self):
        """A corrupt-looking delta cannot fire on the very first check
        of a scheme: there is no window yet."""
        scheme = make_scheme(SelectDedupe)
        warm(scheme)
        sanitizer = PodSanitizer(fail_fast=False)
        out = [
            v
            for v in sanitizer.check_scheme(scheme, 1.0)
            if v.code == "INV-REFS-DELTA"
        ]
        assert out == []

    def test_baselines_are_per_scheme(self):
        a, b = make_scheme(SelectDedupe), make_scheme(SelectDedupe)
        warm(a)
        sanitizer = PodSanitizer(fail_fast=False)
        assert sanitizer.check_scheme(a, 1.0) == []
        # checking a *different* scheme must not inherit a's baseline
        warm(b)
        out = [
            v
            for v in sanitizer.check_scheme(b, 2.0)
            if v.code == "INV-REFS-DELTA"
        ]
        assert out == []

    def test_registry_snapshots_each_check(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        scheme = make_scheme(SelectDedupe)
        warm(scheme)
        sanitizer = PodSanitizer(fail_fast=False, registry=registry)
        sanitizer.check_scheme(scheme, 1.0)
        sanitizer.check_scheme(scheme, 2.0)
        assert registry.counter("sanitizer.checks").value == 2
        assert registry.gauge("sanitizer.map_entries").value == float(
            len(scheme.map_table)
        )
        assert registry.gauge("sanitizer.refcount_total").value == float(
            sum(scheme.map_table.refcounts.values())
        )
