"""The per-request directory kernel against the per-block round it
replaced.

The replicated directory does a write request's directory work in one
:meth:`ReplicatedDirectory.lookup_register` call, with replica
placement memoized per ring epoch.  The per-block chain it replaced
(``note_overwrite`` + one-block ``lookup_register`` + a fresh ``live_replicas``
ring walk per fingerprint) lives on, test-only, in
:mod:`reference_directory`.  Here hypothesis drives one stream of
operations through both, on 3-4 nodes, at R in {1, 2, 3} under ONE,
QUORUM and ALL:

* write requests from a small fingerprint pool over a small address
  range, so fingerprints repeat across requests and nodes and blocks
  get overwritten (with new content and with the content they hold);
* metadata-node kills between requests, up to every member, so
  lookups degrade, go unavailable and read-repair shifted windows;
* ring membership changes between requests (``remove_member`` /
  ``add_member`` on the router both directories share), so placement
  and the kernel's cached contact sets must follow the ring epoch (the
  kernel's memo starts filled by ``place_all``);
* refcount-GC commits between requests (whose wire plan and
  decrements use the memoized ``live_replicas``);
* one-block ``lookup_register`` calls, whose :class:`LookupResult`
  must match field by field.

After every operation each request's ``(per_dst, repair_links,
remote_dups)``, every replica table (writer, seq, refs per entry),
``live_counts``, ``decrement_intents``, the per-member counters and
every ``summary()`` counter must be equal.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.directory import (
    Consistency,
    DirectoryConfig,
    DirectoryEntry,
    LookupResult,
    RefcountGc,
    ReplicatedDirectory,
    RequestRound,
)
from repro.cluster.router import FingerprintRouter

from tests.cluster.reference_directory import ReferenceDirectory, reference_request

LBAS = 16
FPS = 12


@st.composite
def operation(draw: Any, nnodes: int) -> Tuple[Any, ...]:
    kind = draw(st.sampled_from(["w"] * 6 + ["kill", "gc", "one", "ring"]))
    if kind == "w":
        n = draw(st.integers(min_value=1, max_value=6))
        lba = draw(st.integers(min_value=0, max_value=LBAS - n))
        fps = draw(st.lists(st.integers(0, FPS - 1), min_size=n, max_size=n))
        origin = draw(st.integers(0, nnodes - 1))
        return ("w", origin, lba, tuple(fps))
    if kind in ("kill", "ring"):
        return (kind, draw(st.integers(0, nnodes - 1)))
    if kind == "one":
        return (
            "one",
            draw(st.integers(0, nnodes - 1)),
            draw(st.integers(0, FPS - 1)),
            draw(st.booleans()),
        )
    return ("gc",)


@st.composite
def scenario(draw: Any) -> Tuple[Any, ...]:
    nnodes = draw(st.integers(min_value=3, max_value=4))
    # Read repair needs a contact window that a kill can shift onto a
    # replica the registration skipped: R=3 under QUORUM.  Weight it.
    replication = draw(st.sampled_from([1, 2, 3, 3]))
    consistency = draw(
        st.sampled_from(
            [Consistency.ONE, Consistency.QUORUM, Consistency.QUORUM, Consistency.ALL]
        )
    )
    vnodes = draw(st.sampled_from([2, 4, 8]))
    ops = draw(st.lists(operation(nnodes), min_size=12, max_size=60))
    return nnodes, replication, consistency, vnodes, ops


def _state(d: ReplicatedDirectory) -> Dict[str, Any]:
    return {
        "tables": {
            m: {fp: (e.writer, e.seq, e.refs) for fp, e in table.items()}
            for m, table in d.tables.items()
        },
        "live_counts": dict(d.live_counts),
        "intents": list(d.decrement_intents),
        "summary": d.summary(),
        "members": [d.member_summary(m) for m in sorted(d.tables)],
    }


def _result(res: LookupResult) -> Dict[str, Any]:
    return {name: getattr(res, name) for name in LookupResult.__slots__}


def _directories(
    nnodes: int, replication: int, consistency: Consistency, vnodes: int
) -> List[ReplicatedDirectory]:
    config = DirectoryConfig(replication=replication, consistency=consistency)
    router = FingerprintRouter(range(nnodes), vnodes=vnodes)
    return [
        cls(router, nnodes, config)
        for cls in (ReplicatedDirectory, ReferenceDirectory)
    ]


def _toggle_member(router: FingerprintRouter, member: int) -> None:
    """Take ``member`` off the ring, or put it back; the last member
    stays."""
    if member not in router:
        router.add_member(member)
    elif len(router.members) > 1:
        router.remove_member(member)


class TestDirectoryDifferential:
    @settings(max_examples=300, deadline=None)
    @given(scenario())
    # A one-block round right after a kill: the contact window shifts
    # onto the replica the registration skipped, and the cached route
    # of the placement must be rebuilt, not reused.
    @example((
        3, 3, Consistency.QUORUM, 4,
        [("w", 0, 0, (1, 2, 3, 4)), ("kill", 0), ("one", 1, 1, True),
         ("one", 2, 2, False), ("kill", 1), ("one", 0, 3, True),
         ("w", 1, 2, (3, 4, 5))],
    ))
    # Ring changes between requests: placements (and their cached
    # routes) follow the epoch, with kills and GC around them.
    @example((
        4, 2, Consistency.QUORUM, 2,
        [("w", 0, 0, (1, 2, 3, 4, 5, 6)), ("ring", 1), ("w", 2, 0, (1, 2, 7)),
         ("kill", 3), ("ring", 3), ("one", 0, 5, True), ("gc",), ("ring", 1),
         ("w", 1, 3, (6, 5, 4)), ("ring", 0), ("ring", 2), ("one", 3, 2, False)],
    ))
    def test_kernel_matches_per_block_round(self, scen):
        nnodes, replication, consistency, vnodes, ops = scen
        fused, ref = _directories(nnodes, replication, consistency, vnodes)
        fused.placer.place_all(range(FPS))
        gcs = [RefcountGc(fused), RefcountGc(ref)]
        shadows: List[List[Dict[int, int]]] = [
            [{} for _ in range(nnodes)] for _ in range(2)
        ]
        for op in ops:
            if op[0] == "w":
                _, origin, lba, fps = op
                rnd = RequestRound(fps, lba, shadows[0][origin])
                got = fused.lookup_register(0, origin, True, request=rnd)
                assert got is None
                want = reference_request(ref, fps, lba, shadows[1][origin], origin)
                assert (rnd.per_dst, rnd.repair_links, rnd.remote_dups) == want, op
                assert shadows[0] == shadows[1]
            elif op[0] == "kill":
                fused.kill(op[1])
                ref.kill(op[1])
            elif op[0] == "ring":
                _toggle_member(fused.placer.router, op[1])
            elif op[0] == "one":
                _, origin, fp, new_holder = op
                got = fused.lookup_register(fp, origin, new_holder)
                want_res = ref.lookup_register(fp, origin, new_holder)
                assert _result(got) == _result(want_res), op
            else:
                plans = [
                    gc.plan_links(gc.plan_decrements(gc.cursor, 8)[0]) for gc in gcs
                ]
                assert plans[0] == plans[1]
                for gc in gcs:
                    gc.drain_all()
                assert gcs[0].summary() == gcs[1].summary()
            assert _state(fused) == _state(ref), op

    def test_placement_memo_follows_the_ring_epoch(self):
        """A membership change drops the memo: placement after it is
        the fresh ring's."""
        router = FingerprintRouter(range(3), vnodes=8)
        d = ReplicatedDirectory(router, 4, DirectoryConfig(replication=2))
        before = [d.live_replicas(fp) for fp in range(200)]
        router.add_member(3)
        fresh = FingerprintRouter(range(4), vnodes=8)
        after = [d.live_replicas(fp) for fp in range(200)]
        assert after == [fresh.route_replicas(fp, 2) for fp in range(200)]
        assert after != before

    def test_seq_tie_repairs_with_the_first_in_preference_entry(self):
        """Two contacted replicas hold the same seq with different
        ``refs`` (random streams never build this) and the third lacks
        the entry: the tie goes to the first replica in preference
        order, so the repair copies its ``refs``, in the kernel (both
        call forms) and in the per-block reference alike."""
        fp = 7
        for new_holder in (False, True):
            fused, ref = _directories(3, 3, Consistency.ALL, 4)
            fused_request = _directories(3, 3, Consistency.ALL, 4)[0]
            want = None
            for d, form in (
                (fused, "one"), (ref, "one"), (fused_request, "request")
            ):
                first, second, third = d.live_replicas(fp)
                d.tables[first][fp] = DirectoryEntry(1, 5, 2)
                d.tables[second][fp] = DirectoryEntry(1, 5, 9)
                if form == "one":
                    d.lookup_register(fp, 0, new_holder)
                else:
                    shadow = {} if new_holder else {0: fp}
                    d.lookup_register(
                        0, 0, True, request=RequestRound((fp,), 0, shadow)
                    )
                bump = 1 if new_holder else 0
                got = [
                    (e.writer, e.seq, e.refs)
                    for e in (d.tables[m][fp] for m in (first, second, third))
                ]
                assert got == [(1, 5, 2 + bump), (1, 5, 9 + bump), (1, 5, 2 + bump)]
                assert d.read_repairs == 1 and d.repair_pushes == 1
                if want is None:
                    want = _state(d)
                assert _state(d) == want, (type(d).__name__, form, new_holder)
