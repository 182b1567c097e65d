"""Unit tests for the metadata-only ghost cache."""

import pytest

from repro.cache.ghost import GhostCache
from repro.errors import CacheError


class TestGhostCache:
    def test_record_and_hit(self):
        g = GhostCache(100, default_entry_size=10)
        g.record_eviction("a")
        assert g.hit("a") is True
        assert g.hits == 1

    def test_hit_removes_key(self):
        g = GhostCache(100, default_entry_size=10)
        g.record_eviction("a")
        g.hit("a")
        assert "a" not in g
        assert g.hit("a") is False

    def test_miss_not_counted(self):
        g = GhostCache(100, default_entry_size=10)
        assert g.hit("never") is False
        assert g.hits == 0

    def test_capacity_ages_out_lru(self):
        g = GhostCache(30, default_entry_size=10)
        g.record_eviction("a")
        g.record_eviction("b")
        g.record_eviction("c")
        g.record_eviction("d")
        assert "a" not in g
        assert list(g.keys_mru()) == ["d", "c", "b"]

    def test_re_eviction_refreshes_recency(self):
        g = GhostCache(30, default_entry_size=10)
        for k in "abc":
            g.record_eviction(k)
        g.record_eviction("a")  # refresh
        g.record_eviction("d")
        assert "b" not in g
        assert list(g.keys_mru()) == ["d", "a", "c"]

    def test_oversize_entry_dropped_immediately(self):
        g = GhostCache(30, default_entry_size=31)
        g.record_eviction("big")
        assert "big" not in g
        assert len(g) == 0

    def test_remove_silent(self):
        g = GhostCache(100, default_entry_size=10)
        g.record_eviction("a")
        assert g.remove("a") is True
        assert g.hits == 0
        assert g.remove("a") is False

    def test_resize_sheds(self):
        g = GhostCache(40, default_entry_size=10)
        for k in "abcd":
            g.record_eviction(k)
        dropped = g.resize(20)
        assert dropped == ["a", "b"]
        assert g.used_bytes == 20

    def test_keys_mru_order(self):
        g = GhostCache(100, default_entry_size=10)
        for k in "abc":
            g.record_eviction(k)
        assert list(g.keys_mru()) == ["c", "b", "a"]

    def test_reset_counters(self):
        g = GhostCache(100, default_entry_size=10)
        g.record_eviction("a")
        g.hit("a")
        g.reset_counters()
        assert g.hits == 0

    def test_invalid_params(self):
        with pytest.raises(CacheError):
            GhostCache(-1)
        with pytest.raises(CacheError):
            GhostCache(10, default_entry_size=0)
