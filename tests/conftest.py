"""Shared fixtures for the POD reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

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

#: All scheme classes, for parametrised tests.
ALL_SCHEMES = [Native, FullDedupe, IDedup, SelectDedupe, POD, IODedup, PostProcessDedupe]

#: Schemes that actually deduplicate on the write path.
DEDUP_SCHEMES = [FullDedupe, IDedup, SelectDedupe, POD]


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def small_config():
    """A small but fully functional scheme configuration."""
    return SchemeConfig(
        logical_blocks=4096,
        memory_bytes=64 * 1024,
        index_fraction=0.5,
    )


@pytest.fixture(params=ALL_SCHEMES, ids=lambda cls: cls.name)
def any_scheme(request, small_config):
    """One instance of every scheme."""
    return request.param(small_config)


@pytest.fixture(params=DEDUP_SCHEMES, ids=lambda cls: cls.name)
def dedup_scheme(request, small_config):
    """One instance of every write-deduplicating scheme."""
    return request.param(small_config)


def write(lba, fps, time=0.0):
    """Shorthand write-request builder."""
    return IORequest.write(time=time, lba=lba, fingerprints=list(fps))


def read(lba, nblocks, time=0.0):
    """Shorthand read-request builder."""
    return IORequest.read(time=time, lba=lba, nblocks=nblocks)


class Oracle:
    """Data-integrity oracle: drives a scheme request-by-request while
    remembering the last content written to every LBA, then asserts
    that the scheme's map/content state returns exactly that."""

    def __init__(self, scheme):
        self.scheme = scheme
        self.expected = {}
        self.now = 0.0

    def write(self, lba, fps):
        self.now += 1e-3
        req = IORequest.write(time=self.now, lba=lba, fingerprints=list(fps))
        planned = self.scheme.process(req, self.now)
        for i, fp in enumerate(fps):
            self.expected[lba + i] = fp
        return planned

    def read(self, lba, nblocks):
        self.now += 1e-3
        req = IORequest.read(time=self.now, lba=lba, nblocks=nblocks)
        return self.scheme.process(req, self.now)

    def check(self):
        problems = check_integrity(self.scheme, self.expected)
        assert problems == [], problems
