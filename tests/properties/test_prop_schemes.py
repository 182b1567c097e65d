"""Property-based end-to-end integrity: every scheme must return, for
every LBA, the content most recently written to it -- whatever the
deduplication decisions were.  This is the strongest correctness
statement about the whole write path (categoriser, map table,
redirection, reclamation, caches).

Every generated workload additionally runs under a
:class:`~repro.analysis.sanitizer.PodSanitizer` in accumulate mode
(``fail_fast=False``): the sanitizer validates each dedupe decision as
it is made and the whole structural state afterwards, so hypothesis
shrinks straight to the minimal workload that breaks an invariant."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import PodSanitizer
from repro.baselines.base import SchemeConfig
from repro.baselines.full_dedupe import FullDedupe
from repro.baselines.idedup import IDedup
from repro.baselines.iodedup import IODedup
from repro.baselines.native import Native
from repro.baselines.postprocess import PostProcessDedupe
from repro.core.pod import POD
from repro.core.select_dedupe import SelectDedupe
from repro.sim.request import IORequest
from tests.helpers import check_integrity

LOGICAL = 512

write_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=LOGICAL - 9),  # lba
        st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=80,
)

scheme_classes = st.sampled_from(
    [Native, FullDedupe, IDedup, SelectDedupe, POD, IODedup, PostProcessDedupe]
)


def run_workload(cls, writes, epoch_every=0):
    scheme, expected, sanitizer = run_sanitized_workload(
        cls, writes, epoch_every=epoch_every
    )
    assert sanitizer.violations == [], [v.render() for v in sanitizer.violations]
    return scheme, expected


def run_sanitized_workload(cls, writes, epoch_every=0):
    """Replay ``writes`` with a whole-state invariant oracle attached.

    The sanitizer runs in accumulate mode so a workload completes even
    when an invariant breaks; callers assert on ``.violations`` and
    get every violation (with its code) in the failure message.
    """
    scheme = cls(
        SchemeConfig(
            logical_blocks=LOGICAL,
            memory_bytes=32 * 1024,
            idedup_threshold=3,
        )
    )
    sanitizer = PodSanitizer(fail_fast=False)
    sanitizer.attach(scheme)
    expected = {}
    now = 0.0
    for i, (lba, fps) in enumerate(writes):
        now += 1e-3
        scheme.process(IORequest.write(time=now, lba=lba, fingerprints=fps), now)
        for k, fp in enumerate(fps):
            expected[lba + k] = fp
        if epoch_every and i % epoch_every == 0:
            scheme.on_epoch(now)
    sanitizer.check_scheme(scheme, now)
    return scheme, expected, sanitizer


class TestSchemeIntegrity:
    @given(writes=write_ops, cls=scheme_classes)
    @settings(max_examples=60, deadline=None)
    def test_read_after_write_integrity(self, writes, cls):
        scheme, expected = run_workload(cls, writes)
        assert check_integrity(scheme, expected) == []

    @given(writes=write_ops)
    @settings(max_examples=30, deadline=None)
    def test_pod_integrity_with_epochs(self, writes):
        scheme, expected = run_workload(POD, writes, epoch_every=5)
        assert check_integrity(scheme, expected) == []

    @given(writes=write_ops)
    @settings(max_examples=30, deadline=None)
    def test_postprocess_integrity_with_background_passes(self, writes):
        scheme, expected = run_workload(PostProcessDedupe, writes, epoch_every=3)
        scheme.on_epoch(1e9)  # final pass over remaining dirty blocks
        assert check_integrity(scheme, expected) == []

    @given(writes=write_ops, cls=scheme_classes)
    @settings(max_examples=40, deadline=None)
    def test_capacity_never_exceeds_native(self, writes, cls):
        scheme, expected = run_workload(cls, writes)
        native_capacity = len({l for l, _ in expected.items()})
        assert scheme.capacity_blocks() <= native_capacity
        # and is exactly the number of distinct physical blocks
        assert scheme.capacity_blocks() == len(
            scheme.map_table.live_pbas(scheme.written_lbas)
        )

    @given(writes=write_ops, cls=scheme_classes)
    @settings(max_examples=40, deadline=None)
    def test_counters_consistent(self, writes, cls):
        scheme, _ = run_workload(cls, writes)
        total_blocks = sum(len(fps) for _, fps in writes)
        assert scheme.writes_total == len(writes)
        assert scheme.write_blocks_total == total_blocks
        handled = (
            scheme.write_blocks_written
            + scheme.write_blocks_deduped
        )
        assert handled == total_blocks
        assert scheme.write_requests_removed <= scheme.writes_total

    @given(writes=write_ops, cls=scheme_classes)
    @settings(max_examples=40, deadline=None)
    def test_sanitizer_oracle_stays_clean(self, writes, cls):
        """The POD invariant sanitizer, run as a whole-state oracle
        over arbitrary workloads, finds nothing: every dedupe decision
        is policy-conformant and the Map/Index/cache/NVRAM state is
        structurally sound afterwards (codes INV-* in
        repro.analysis.sanitizer)."""
        scheme, _, sanitizer = run_sanitized_workload(cls, writes, epoch_every=7)
        assert sanitizer.violations == [], [
            v.render() for v in sanitizer.violations
        ]
        assert sanitizer.stats.checks_run >= 1
        if scheme.uses_fingerprints:
            assert sanitizer.stats.decisions_validated == len(writes)

    @given(writes=write_ops)
    @settings(max_examples=30, deadline=None)
    def test_referenced_blocks_keep_their_content(self, writes):
        """After any workload, every explicit map entry points at a
        physical block holding exactly the content last written to
        that LBA (no dangling or clobbered references)."""
        scheme, expected = run_workload(SelectDedupe, writes)
        for lba in scheme.written_lbas:
            pba = scheme.map_table.translate(lba)
            assert scheme.content.read(pba) == expected[lba]
