"""Unit tests for the consistent-hash fingerprint router."""

import pytest

from repro.cluster.router import DEFAULT_VNODES, MASK64, FingerprintRouter, mix64
from repro.errors import ClusterError
from tests.helpers import route_many

FPS = list(range(0, 5000, 7))


class TestMix64:
    def test_known_values(self):
        """splitmix64 finaliser, pinned against the reference constants.

        These exact values must reproduce on every platform -- routing
        (and therefore every cluster replay) depends on them.
        """
        assert mix64(0) == 0xE220A8397B1DCDAF
        assert mix64(1) == 0x910A2DEC89025CC1
        assert mix64(2) == 0x975835DE1C9756CE

    def test_range_and_determinism(self):
        for x in (0, 1, 2**31, 2**63, MASK64, MASK64 + 5):
            h = mix64(x & MASK64)
            assert 0 <= h <= MASK64
            assert h == mix64(x & MASK64)

    def test_mixes_adjacent_inputs_apart(self):
        hashes = {mix64(x) for x in range(1000)}
        assert len(hashes) == 1000


class TestMembership:
    def test_members_sorted_insertion_independent(self):
        a = FingerprintRouter([2, 0, 1])
        b = FingerprintRouter([0, 1, 2])
        assert a.members == b.members == (0, 1, 2)
        assert route_many(a, FPS) == route_many(b, FPS)

    def test_ring_size(self):
        r = FingerprintRouter([0, 1], vnodes=8)
        assert r.ring_size() == 16
        r.add_member(2)
        assert r.ring_size() == 24
        assert 2 in r and 3 not in r

    def test_default_vnodes(self):
        assert FingerprintRouter([0]).ring_size() == DEFAULT_VNODES

    def test_errors(self):
        with pytest.raises(ClusterError):
            FingerprintRouter([])
        with pytest.raises(ClusterError):
            FingerprintRouter([0], vnodes=0)
        with pytest.raises(ClusterError):
            FingerprintRouter([-1])
        r = FingerprintRouter([0, 1])
        with pytest.raises(ClusterError):
            r.add_member(1)
        with pytest.raises(ClusterError):
            r.remove_member(7)
        r.remove_member(1)
        with pytest.raises(ClusterError):
            r.remove_member(0)  # never empty the ring


class TestRouting:
    def test_single_member_owns_everything(self):
        r = FingerprintRouter([3])
        assert set(route_many(r, FPS)) == {3}

    def test_routes_land_on_members(self):
        r = FingerprintRouter([0, 1, 2, 3])
        assert set(route_many(r, FPS)) <= {0, 1, 2, 3}

    def test_roughly_fair_split(self):
        """With default vnodes no member owns a grossly unfair share."""
        r = FingerprintRouter([0, 1, 2, 3])
        routes = route_many(r, range(20000))
        for m in (0, 1, 2, 3):
            share = routes.count(m) / len(routes)
            assert 0.10 < share < 0.45

    def test_exact_removal_property(self):
        """Removing a member never remaps a surviving member's keys."""
        r = FingerprintRouter([0, 1, 2])
        before = route_many(r, FPS)
        r.remove_member(1)
        after = route_many(r, FPS)
        for b, a in zip(before, after):
            if b != 1:
                assert a == b
            else:
                assert a in (0, 2)

    def test_add_then_remove_round_trips(self):
        r = FingerprintRouter([0, 1])
        before = route_many(r, FPS)
        r.add_member(2)
        r.remove_member(2)
        assert route_many(r, FPS) == before

    def test_replica_walks_follow_membership_changes(self):
        """Replica sets after a membership change are the fresh ring's,
        and each change moves the ring epoch (placement memos key on
        it)."""
        r = FingerprintRouter([0, 1, 2], vnodes=16)
        before = [r.route_replicas(fp, 2) for fp in FPS]
        epoch = r.epoch
        r.add_member(3)
        assert r.epoch > epoch
        fresh = FingerprintRouter([0, 1, 2, 3], vnodes=16)
        assert [r.route_replicas(fp, 2) for fp in FPS] == [
            fresh.route_replicas(fp, 2) for fp in FPS
        ]
        r.remove_member(3)
        assert [r.route_replicas(fp, 2) for fp in FPS] == before

    def test_pinned_golden_routes(self):
        """Cross-process stability: exact routes, captured once."""
        r = FingerprintRouter([0, 1, 2], vnodes=16)
        assert route_many(r, [0, 1, 2, 3, 4, 1000, 12345, 999999]) == [
            mix_route for mix_route in GOLDEN_ROUTES
        ]


#: route_many([0..4, 1000, 12345, 999999]) on a 3-member, 16-vnode ring;
#: captured from the initial implementation.  A change here silently
#: reshards every cluster replay -- treat as a breaking change.
GOLDEN_ROUTES = [2, 1, 2, 2, 0, 1, 1, 0]
