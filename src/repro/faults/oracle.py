"""End-to-end content oracle for fault-injection replays.

Deduplication *concentrates* risk: one lost physical block can
invalidate every logical block whose Map-table entry references it.
The oracle is the ground-truth check that no injected fault -- sector
errors, degraded arrays, torn NVRAM, corrupted fingerprints -- ever
turns into silently wrong data: it shadows the replay with the
logical-level truth (LBA -> last-written fingerprint) and asserts
that every completed read resolves, through the live Map table and
content store, to exactly that fingerprint.

Degradation is modelled honestly: when NVRAM-loss recovery cannot
re-derive an LBA's mapping (journal records lost outright), the
scheme quarantines the LBA and the oracle marks it *at risk* -- reads
of it are counted (``at_risk_reads``) rather than failed, because the
system has correctly *detected* that it cannot vouch for the content.
The next write of real data heals both sides.  An at-risk read is a
declared degradation; a mismatching read outside the at-risk set is a
correctness bug and fails the run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Set, Tuple

import numpy as np

from repro.errors import FaultError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.baselines.base import DedupScheme
    from repro.sim.request import IORequest

#: Cap on recorded mismatch diagnostics (a corruption cascade should
#: produce a readable report, not an unbounded list).
MAX_MISMATCHES = 20


class ContentOracle:
    """Logical-block checksum shadow of one replay."""

    def __init__(self) -> None:
        #: LBA -> fingerprint of the last write the replay issued.
        self.expected: Dict[int, int] = {}
        #: LBAs the system has declared it cannot vouch for
        #: (quarantined by crash recovery; healed by the next write).
        self.at_risk: Set[int] = set()
        # -- counters ---------------------------------------------------
        self.writes_noted = 0
        self.reads_checked = 0
        self.blocks_checked = 0
        self.at_risk_reads = 0
        self.mismatches = 0
        #: First ``MAX_MISMATCHES`` mismatch diagnostics.
        self.mismatch_details: List[str] = []
        # -- leased-job step ledger -------------------------------------
        #: job name -> committed cursor intervals, in commit order.
        self.job_steps: Dict[str, List[Tuple[int, int]]] = {}
        #: job name -> final cursor the job must reach when done.
        self.job_totals: Dict[str, int] = {}
        #: Jobs that reported completion.
        self.jobs_done: Set[str] = set()

    # ------------------------------------------------------------------
    # replay hooks
    # ------------------------------------------------------------------

    def note_write(self, request: "IORequest") -> None:
        """Record the truth a completed write establishes."""
        assert request.fingerprints is not None
        self.writes_noted += 1
        blocks = range(request.lba, request.lba + request.nblocks)
        self.expected.update(zip(blocks, request.fingerprints))
        if self.at_risk:
            self.at_risk.difference_update(blocks)

    def check_read(self, request: "IORequest", scheme: "DedupScheme") -> None:
        """Assert a read resolves to the last-written content."""
        self.reads_checked += 1
        lba = request.lba
        pbas = scheme.map_table.translate_range(lba, request.nblocks)
        want_of = self.expected.get
        at_risk = self.at_risk
        read = scheme.content.read
        for block, pba in zip(range(lba, lba + request.nblocks), pbas):
            want = want_of(block)
            if want is None:
                continue  # never-written block: nothing to vouch for
            if at_risk and block in at_risk:
                self.at_risk_reads += 1
                continue
            self.blocks_checked += 1
            got = read(pba)
            if got != want:
                self._mismatch(
                    f"read of LBA {block} -> PBA {pba}: expected fingerprint "
                    f"{want}, found {got}"
                )

    def mark_at_risk(self, lbas: Iterable[int]) -> None:
        """Declare LBAs unverifiable until the next write heals them."""
        self.at_risk.update(lbas)

    # ------------------------------------------------------------------
    # leased-job step ledger
    # ------------------------------------------------------------------
    #
    # A leased job advances a monotone cursor in committed steps; the
    # runtime records every *accepted* commit here.  Stale-lease
    # recovery is correct iff the committed intervals chain exactly
    # 0 -> total: a gap means a step was lost, an overlap or a
    # backwards start means a fenced worker's step was double-applied.

    def note_job_total(self, name: str, total: int) -> None:
        """Register a job and the final cursor it must reach."""
        self.job_totals[name] = total
        self.job_steps.setdefault(name, [])

    def note_job_step(self, name: str, start: int, end: int) -> None:
        """Record one committed step covering ``[start, end)``."""
        self.job_steps.setdefault(name, []).append((start, end))

    def note_job_done(self, name: str) -> None:
        """Record that a job reported completion."""
        self.jobs_done.add(name)

    def verify_job_steps(self) -> List[str]:
        """Step-ledger diagnostics (empty = clean).

        Committed intervals must chain contiguously from cursor 0; a
        completed job's chain must end exactly at its registered total.
        """
        problems: List[str] = []
        for name in sorted(self.job_steps):
            cursor = 0
            for start, end in self.job_steps[name]:
                if start != cursor:
                    verb = "double-applied" if start < cursor else "lost"
                    problems.append(
                        f"job {name}: committed step [{start}, {end}) but the "
                        f"ledger cursor is {cursor} (a step was {verb})"
                    )
                if end > cursor:
                    cursor = end
            if name in self.jobs_done:
                total = self.job_totals.get(name)
                if total is not None and cursor != total:
                    problems.append(
                        f"job {name}: completed at cursor {cursor}, "
                        f"expected {total}"
                    )
        return problems

    def assert_job_steps_clean(self) -> None:
        """Raise :class:`~repro.errors.FaultError` on ledger violations."""
        problems = self.verify_job_steps()
        if problems:
            lines = "\n  ".join(problems)
            raise FaultError(
                f"job-step ledger found {len(problems)} violation(s):\n  {lines}"
            )

    def job_steps_summary(self) -> Dict[str, Any]:
        """Ledger self-description for the run report's jobs section."""
        return {
            "jobs_tracked": len(self.job_steps),
            "steps_committed": sum(len(v) for v in self.job_steps.values()),
            "jobs_completed": len(self.jobs_done),
            "violations": self.verify_job_steps(),
        }

    # ------------------------------------------------------------------
    # whole-state check
    # ------------------------------------------------------------------

    def verify_all(self, scheme: "DedupScheme") -> List[str]:
        """Check *every* written LBA against the live state.

        Returns diagnostics for non-at-risk mismatches (empty = clean).
        """
        expected = self.expected
        problems: List[str] = []
        if not expected:
            return problems
        read = scheme.content.read
        lbas = np.array(sorted(expected), dtype=np.int64)
        # One Map-table call per run of consecutive written LBAs.
        starts = [0] + (np.flatnonzero(np.diff(lbas) != 1) + 1).tolist()
        for a, b in zip(starts, starts[1:] + [len(lbas)]):
            first = int(lbas[a])
            pbas = scheme.map_table.translate_range(first, b - a)
            for lba, pba in zip(range(first, first + b - a), pbas):
                if lba in self.at_risk:
                    continue
                got = read(pba)
                if got != expected[lba]:
                    problems.append(
                        f"final state: LBA {lba} -> PBA {pba}: expected "
                        f"fingerprint {expected[lba]}, found {got}"
                    )
                    if len(problems) >= MAX_MISMATCHES:
                        return problems
        return problems

    def assert_clean(self, scheme: "DedupScheme") -> None:
        """Raise :class:`~repro.errors.FaultError` on any mismatch,
        inline or in the final whole-state sweep."""
        problems = list(self.mismatch_details)
        problems.extend(self.verify_all(scheme))
        problems.extend(self.verify_job_steps())
        if self.mismatches > len(self.mismatch_details):
            problems.append(
                f"... and {self.mismatches - len(self.mismatch_details)} "
                "more inline mismatches (capped)"
            )
        if problems:
            lines = "\n  ".join(problems)
            raise FaultError(
                f"content oracle found {len(problems)} violation(s):\n  {lines}"
            )

    # ------------------------------------------------------------------

    def _mismatch(self, detail: str) -> None:
        self.mismatches += 1
        if len(self.mismatch_details) < MAX_MISMATCHES:
            self.mismatch_details.append(detail)

    def summary(self) -> Dict[str, Any]:
        """Oracle self-description for run reports."""
        out: Dict[str, Any] = {
            "writes_noted": self.writes_noted,
            "reads_checked": self.reads_checked,
            "blocks_checked": self.blocks_checked,
            "at_risk_reads": self.at_risk_reads,
            "at_risk_lbas": len(self.at_risk),
            "mismatches": self.mismatches,
        }
        # Step-ledger keys appear only when jobs ran, so jobs-off fault
        # reports keep their golden bytes.
        if self.job_steps:
            out["job_steps"] = self.job_steps_summary()
        return out
