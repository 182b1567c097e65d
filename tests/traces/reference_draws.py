"""The synthetic generator's draws as they were before the draw kernels.

The generator once drew every categorical value through NumPy's
``Generator.choice`` with explicit probabilities, rebuilt the Zipf
table from scratch on every pool growth and pulled fresh fingerprints
one ``next`` at a time.  The kernels in ``repro.traces.workload`` and
``repro.traces.synthetic`` must return the same draw from the same
generator state; :class:`ReferenceGeneratorState` plugs the original
draws back into the generator loop so the differential tests can run
both on one spec and compare records and final generator states.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import TraceError
from repro.traces.synthetic import CLASSES, TraceSpec, _GeneratorState
from repro.traces.workload import SizeDistribution


class ReferenceZipfChooser:
    """Bounded Zipf(s) ranks: the full table rebuilt on every resize."""

    def __init__(self, n: int, s: float = 1.0) -> None:
        if n < 1:
            raise TraceError("ZipfChooser needs n >= 1")
        if s < 0:
            raise TraceError("Zipf exponent must be non-negative")
        self.s = s
        self._n = 0
        self._cdf: np.ndarray = np.empty(0)
        self.resize(n)

    @property
    def n(self) -> int:
        return self._n

    @property
    def cdf(self) -> np.ndarray:
        return self._cdf

    def resize(self, n: int) -> None:
        if n < 1:
            raise TraceError("ZipfChooser needs n >= 1")
        if n == self._n:
            return
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** (-self.s)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        self._cdf = cdf
        self._n = n

    def draw(self, rng: np.random.Generator) -> int:
        return int(np.searchsorted(self._cdf, rng.random(), side="right"))

    def draw_many(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return np.searchsorted(self._cdf, rng.random(k), side="right")


class ReferenceSizes:
    """A size table drawn through ``Generator.choice``."""

    def __init__(self, dist: SizeDistribution) -> None:
        self.sizes = dist.sizes
        self.probs = dist.probs

    def draw(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.sizes, p=self.probs))


def reference_class(rng: np.random.Generator, probs: Sequence[float]) -> str:
    """A redundancy class drawn through ``Generator.choice``."""
    return CLASSES[int(rng.choice(len(CLASSES), p=np.array(probs)))]


class ReferenceGeneratorState(_GeneratorState):
    """The generator's state with every draw in its original form."""

    def __init__(self, spec: TraceSpec, rng: np.random.Generator) -> None:
        super().__init__(spec, rng)
        self.zipf = ReferenceZipfChooser(1, spec.zipf_s)
        self.read_zipf = ReferenceZipfChooser(
            1, spec.zipf_s if spec.read_zipf_s is None else spec.read_zipf_s
        )
        self.write_sizes = ReferenceSizes(self.write_sizes)
        self.read_sizes = ReferenceSizes(self.read_sizes)
        self.class_probs = [spec.class_probs[c] for c in CLASSES]

    def fresh(self, n: int) -> Tuple[int, ...]:
        return tuple(next(self.fresh_fp) for _ in range(n))

    def draw_class(self) -> str:
        return reference_class(self.rng, self.class_probs)
