"""Unit tests for the byte-capacity LRU cache."""

import pytest

from repro.cache.lru import LRUCache
from repro.errors import CacheError


class TestBasics:
    def test_put_get(self):
        c = LRUCache(100)
        c.put("a", 1)
        assert c.get("a") == 1

    def test_miss_returns_none(self):
        c = LRUCache(100)
        assert c.get("missing") is None

    def test_contains_and_len(self):
        c = LRUCache(100)
        c.put("a")
        assert "a" in c and len(c) == 1

    def test_used_and_free_bytes(self):
        c = LRUCache(100, default_entry_size=25)
        c.put("a")
        c.put("b")
        assert c.used_bytes == 50
        assert c.free_bytes == 50

    def test_update_replaces_size(self):
        c = LRUCache(100, default_entry_size=30)
        c.put("a", 1)
        c.put("a", 2)
        assert c.used_bytes == 30 and len(c) == 1
        assert c.peek("a") == 2

    def test_default_entry_size(self):
        c = LRUCache(100, default_entry_size=25)
        c.put("a")
        assert c.used_bytes == 25

    def test_invalid_sizes_rejected(self):
        with pytest.raises(CacheError):
            LRUCache(-1)
        with pytest.raises(CacheError):
            LRUCache(10, default_entry_size=0)


class TestEviction:
    def test_lru_order_evicted_first(self):
        c = LRUCache(30, default_entry_size=10)
        c.put("a")
        c.put("b")
        c.put("c")
        victims = c.put("d")
        assert [v[0] for v in victims] == ["a"]

    def test_get_promotes(self):
        c = LRUCache(30, default_entry_size=10)
        c.put("a")
        c.put("b")
        c.put("c")
        c.get("a")
        victims = c.put("d")
        assert [v[0] for v in victims] == ["b"]

    def test_peek_does_not_promote(self):
        c = LRUCache(30, default_entry_size=10)
        c.put("a")
        c.put("b")
        c.put("c")
        c.peek("a")
        victims = c.put("d")
        assert [v[0] for v in victims] == ["a"]

    def test_oversize_entry_rejected_whole(self):
        c = LRUCache(30, default_entry_size=31)
        victims = c.put("big", "x")
        assert victims == [("big", "x")]
        assert "big" not in c and c.evictions == 0

    def test_capacity_never_exceeded(self):
        c = LRUCache(55, default_entry_size=10)
        for i in range(20):
            c.put(i)
            assert c.used_bytes <= 55

    def test_resize_shrink_sheds_lru(self):
        c = LRUCache(50, default_entry_size=10)
        for k in "abcde":
            c.put(k)
        victims = c.resize(20)
        assert [v[0] for v in victims] == ["a", "b", "c"]
        assert c.keys_lru_order() == ["d", "e"]

    def test_resize_grow_keeps_all(self):
        c = LRUCache(20, default_entry_size=10)
        c.put("a")
        c.put("b")
        assert c.resize(100) == []
        assert len(c) == 2

    def test_pop_lru(self):
        c = LRUCache(100, default_entry_size=10)
        c.put("a")
        c.put("b")
        assert c.pop_lru()[0] == "a"
        assert c.pop_lru()[0] == "b"
        assert c.pop_lru() is None

    def test_clear(self):
        c = LRUCache(100, default_entry_size=10)
        c.put("a")
        c.put("b")
        victims = c.clear()
        assert len(victims) == 2 and len(c) == 0 and c.used_bytes == 0

    def test_remove(self):
        c = LRUCache(100, default_entry_size=10)
        c.put("a")
        assert c.remove("a") is True
        assert c.remove("a") is False
        assert c.used_bytes == 0


class TestCounters:
    def test_hit_miss_counting(self):
        c = LRUCache(100, default_entry_size=10)
        c.put("a")
        c.get("a")
        c.get("b")
        assert c.hits == 1 and c.misses == 1
        assert c.hit_ratio == 0.5

    def test_reset_counters(self):
        c = LRUCache(100, default_entry_size=10)
        c.get("x")
        c.reset_counters()
        assert c.hits == 0 and c.misses == 0
        assert c.hit_ratio == 0.0

    def test_zero_capacity_cache_never_holds(self):
        c = LRUCache(0, default_entry_size=10)
        victims = c.put("a")
        assert victims and "a" not in c
