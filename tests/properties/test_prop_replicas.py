"""Property-based tests for R-way replica placement on the ring.

The replicated directory's availability story rests on three
structural properties of ``route_replicas`` / ``ReplicaPlacer``,
checked here over random memberships and fingerprint populations:

* **Distinctness and coverage** -- a replica set always holds exactly
  ``min(R, N)`` *distinct* members, all of them ring members, with the
  primary (``route``) first.
* **Stability under unrelated change** -- adding a member never
  disturbs a replica set the newcomer did not join: survivors keep
  their relative order.
* **Exact removal** -- removing a member rewrites only the replica
  sets that member appeared in, and in those sets the survivors keep
  their relative order (the replacement is appended by the clockwise
  walk, never spliced into the middle arbitrarily).

The vectorised placement (``ReplicaPlacer.place_all``) must put every
fingerprint exactly where the scalar ``route_replicas`` walk does.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.directory import ReplicaPlacer, replicas
from repro.cluster.router import FingerprintRouter

members = st.lists(
    st.integers(min_value=0, max_value=63), min_size=1, max_size=8, unique=True
)
fingerprints = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=200
)
vnodes = st.integers(min_value=8, max_value=64)
replication = st.integers(min_value=1, max_value=4)


def _survivor_order(seq, keep):
    return [m for m in seq if m in keep]


class TestReplicaProperties:
    @given(members=members, fps=fingerprints, vnodes=vnodes, r=replication)
    def test_distinct_members_primary_first(self, members, fps, vnodes, r):
        router = FingerprintRouter(members, vnodes=vnodes)
        for fp in fps:
            rs = replicas(router, fp, r)
            assert len(rs) == min(r, len(members))
            assert len(set(rs)) == len(rs)
            assert set(rs) <= set(members)
            assert rs[0] == router.route(fp)

    @given(members=members, fps=fingerprints, vnodes=vnodes, r=replication)
    def test_r1_is_plain_routing(self, members, fps, vnodes, r):
        router = FingerprintRouter(members, vnodes=vnodes)
        del r
        for fp in fps:
            assert replicas(router, fp, 1) == [router.route(fp)]

    @given(members=members, fps=fingerprints, vnodes=vnodes, r=replication)
    def test_placer_agrees_with_free_function(self, members, fps, vnodes, r):
        router = FingerprintRouter(members, vnodes=vnodes)
        placer = ReplicaPlacer(router, r)
        for fp in fps:
            rs = placer.replicas(fp)
            assert rs == replicas(router, fp, r)
            assert placer.primary(fp) == rs[0]

    @settings(max_examples=60)
    @given(
        n=st.integers(min_value=2, max_value=8),
        vnodes=st.integers(min_value=32, max_value=64),
        r=st.integers(min_value=2, max_value=3),
    )
    def test_add_member_keeps_untouched_sets_stable(self, n, vnodes, r):
        fps = list(range(1024))
        router = FingerprintRouter(list(range(n)), vnodes=vnodes)
        before = {fp: replicas(router, fp, r) for fp in fps}
        router.add_member(n)
        for fp in fps:
            after = replicas(router, fp, r)
            if n not in after:
                # The newcomer did not join this set: nothing changed.
                assert after == before[fp]
            else:
                # It did: everyone else keeps their relative order.
                keep = set(after) - {n}
                assert _survivor_order(after, keep) == _survivor_order(
                    before[fp], keep
                )

    @settings(max_examples=60)
    @given(
        n=st.integers(min_value=3, max_value=8),
        vnodes=st.integers(min_value=32, max_value=64),
        r=st.integers(min_value=2, max_value=3),
        victim_idx=st.integers(min_value=0, max_value=7),
    )
    def test_remove_member_moves_only_its_sets(self, n, vnodes, r, victim_idx):
        fps = list(range(1024))
        victim = victim_idx % n
        router = FingerprintRouter(list(range(n)), vnodes=vnodes)
        before = {fp: replicas(router, fp, r) for fp in fps}
        router.remove_member(victim)
        for fp in fps:
            after = replicas(router, fp, r)
            if victim not in before[fp]:
                assert after == before[fp]
            else:
                keep = set(before[fp]) - {victim}
                assert _survivor_order(after, keep) == _survivor_order(
                    before[fp], keep
                )
                assert victim not in after


#: Any Python int, with the uint64 edges drawn often: negative, zero,
#: 2**63 - 1, 2**63 and values of 2**64 and above.
any_fingerprint = st.one_of(
    st.integers(),
    st.sampled_from(
        [0, -1, -(2**63), 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 7, 2**130 + 3]
    ),
)


def _assert_vectorised_placement(router, fps, r):
    placer = ReplicaPlacer(router, r)
    placer.place_all(fps)
    memo = placer.memo()
    for fp in fps:
        assert memo[fp] == tuple(router.route_replicas(fp, r)), (fp, r)
        assert placer.placement(fp) is memo[fp]


class TestVectorisedPlacement:
    @settings(max_examples=150)
    @given(
        members=st.lists(
            st.integers(min_value=0, max_value=63), min_size=1, max_size=5, unique=True
        ),
        fps=st.lists(any_fingerprint, min_size=1, max_size=60),
        vnodes=st.integers(min_value=1, max_value=16),
        data=st.data(),
    )
    def test_place_all_equals_the_scalar_walk(self, members, fps, vnodes, data):
        router = FingerprintRouter(members, vnodes=vnodes)
        r = data.draw(st.integers(min_value=1, max_value=len(members) + 1))
        _assert_vectorised_placement(router, fps, r)
        newcomer = data.draw(
            st.integers(min_value=0, max_value=63).filter(lambda m: m not in members)
        )
        router.add_member(newcomer)
        _assert_vectorised_placement(router, fps, r)
        victim = data.draw(st.sampled_from(router.members))
        router.remove_member(victim)
        _assert_vectorised_placement(router, fps, r)

    def test_place_all_memo_drops_on_a_ring_change(self):
        """A placer filled in one pass walks again after the ring
        changes, and lands where a fresh ring puts each fingerprint."""
        router = FingerprintRouter(range(3), vnodes=8)
        placer = ReplicaPlacer(router, 2)
        fps = [-5, 0, 2**63, 2**64 + 1] + list(range(100))
        placer.place_all(fps)
        router.add_member(3)
        fresh = FingerprintRouter(range(4), vnodes=8)
        assert placer.memo() == {}
        assert [placer.placement(fp) for fp in fps] == [
            tuple(fresh.route_replicas(fp, 2)) for fp in fps
        ]
