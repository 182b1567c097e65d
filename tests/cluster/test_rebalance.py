"""Unit tests for membership-change specs and the paced shard migrator."""

import pytest

from repro.cluster.rebalance import RebalanceSpec, ShardMigrator
from repro.cluster.router import FingerprintRouter
from repro.errors import ClusterError


class TestRebalanceSpec:
    def test_valid(self):
        spec = RebalanceSpec(time=1.0, add_nodes=1)
        assert spec.remove_node is None
        RebalanceSpec(time=0.0, remove_node=1)

    def test_validation(self):
        with pytest.raises(ClusterError):
            RebalanceSpec(time=-1.0, add_nodes=1)
        with pytest.raises(ClusterError):
            RebalanceSpec(time=1.0)  # neither add nor remove
        with pytest.raises(ClusterError):
            RebalanceSpec(time=1.0, add_nodes=-1)
        with pytest.raises(ClusterError):
            RebalanceSpec(time=1.0, remove_node=-2)
        with pytest.raises(ClusterError):
            RebalanceSpec(time=1.0, add_nodes=1, entries_per_batch=0)
        with pytest.raises(ClusterError):
            RebalanceSpec(time=1.0, add_nodes=1, interval=0.0)


def step(mig, entries):
    """Plan up to ``entries`` movers from the committed cursor and
    commit them, as one paced migration step does; returns the
    per-link wire cost."""
    links, end = mig.plan_batch(mig.cursor, entries)
    mig.commit_batch(mig.cursor, end)
    return links


def _grow_ring(nfps=2000):
    """Two-member ring grows to three; shards populated pre-change."""
    router = FingerprintRouter([0, 1], vnodes=16)
    shards = {0: {}, 1: {}}
    for fp in range(nfps):
        shards[router.route(fp)][fp] = router.route(fp)
    router.add_member(2)
    return router, shards


class TestShardMigrator:
    def test_only_displaced_entries_move(self):
        router, shards = _grow_ring()
        before = {m: dict(s) for m, s in shards.items()}
        mig = ShardMigrator(router, shards)
        assert 0 < mig.entries_total < 2000  # some, not all, remap
        moved = {fp for fp, *_ in mig._moves}  # pod: ignore[POD007]
        for fp in range(2000):
            if router.route(fp) == (0 if fp in before[0] else 1):
                assert fp not in moved

    def test_batches_drain_deterministically(self):
        router, shards = _grow_ring()
        mig = ShardMigrator(router, shards)
        total = mig.entries_total
        drained = 0
        while not mig.done:
            links = step(mig, 64)
            batch = sum(links.values())
            assert 0 < batch <= 64
            drained += batch
            # a growth rebalance only moves entries *to* the new member
            assert all(dst == 2 for (_src, dst) in links)
        assert drained == total
        assert mig.remaining == 0
        assert not mig.pending

    def test_migration_lands_entries_at_new_owner(self):
        router, shards = _grow_ring()
        mig = ShardMigrator(router, shards)
        while not mig.done:
            step(mig, 256)
        # post-migration the shard map agrees with the ring everywhere
        for member, shard in shards.items():
            for fp in shard:
                assert router.route(fp) == member

    def test_same_inputs_same_move_order(self):
        r1, s1 = _grow_ring()
        r2, s2 = _grow_ring()
        m1, m2 = ShardMigrator(r1, s1), ShardMigrator(r2, s2)
        assert m1._moves == m2._moves  # pod: ignore[POD007]

    def test_superseded_entry_counted_not_overwritten(self):
        """First registration wins: a live write that re-registered a
        fingerprint at the new owner supersedes the in-flight copy."""
        router, shards = _grow_ring()
        mig = ShardMigrator(router, shards)
        fp, _src, dst, _writer = mig._moves[0]  # pod: ignore[POD007]
        # a write re-registers the fingerprint at its new owner first
        shards.setdefault(dst, {})[fp] = 99
        mig.note_registered(fp)
        assert fp not in mig.pending
        step(mig, 1)
        assert mig.entries_superseded == 1
        assert shards[dst][fp] == 99  # migration did not clobber it

    def test_removal_moves_every_entry_off_the_leaver(self):
        router = FingerprintRouter([0, 1, 2], vnodes=16)
        shards = {0: {}, 1: {}, 2: {}}
        for fp in range(1500):
            shards[router.route(fp)][fp] = 0
        leaving = len(shards[2])
        router.remove_member(2)
        mig = ShardMigrator(router, shards)
        # exact-removal property: only the leaver's entries move
        assert mig.entries_total == leaving
        while not mig.done:
            step(mig, 128)
        assert not shards[2]
        for member in (0, 1):
            for fp in shards[member]:
                assert router.route(fp) == member

    def test_batch_size_validated(self):
        router, shards = _grow_ring()
        mig = ShardMigrator(router, shards)
        with pytest.raises(ClusterError):
            mig.plan_batch(mig.cursor, 0)

    def test_summary_keys(self):
        router, shards = _grow_ring()
        mig = ShardMigrator(router, shards)
        s = mig.summary()
        assert set(s) == {
            "entries_total",
            "entries_migrated",
            "entries_superseded",
            "entries_remaining",
        }
        assert s["entries_remaining"] == s["entries_total"]
