"""Value types and sampling primitives shared by every other module.

Outcome alphabets are indexed 0..K-1 where K is the number of distinct
values (K >= 2 everywhere). All types are immutable; sampling takes an
explicit seed per stream, so there is no shared generator state to protect.
A stream is a row of an int array of outcome indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Probability vectors must sum to 1 within this absolute tolerance.
# Constructors renormalise smaller deviations and reject larger ones.
PROB_TOL = 1e-12


@dataclass(frozen=True)
class Categorical:
    """Probability vector over K discrete outcome values."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probs)
        if len(probs) < 2:
            raise ValueError("a categorical needs at least two outcome values")
        for p in probs:
            if not (0.0 <= p <= 1.0 + PROB_TOL):
                raise ValueError(f"probability {p!r} outside [0, 1]")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        if total != 1.0:
            probs = tuple(p / total for p in probs)
        object.__setattr__(self, "probs", probs)

    @property
    def k(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class CountVector:
    """Per-outcome tallies with at most ``n_target`` observations recorded."""

    counts: tuple[int, ...]
    n_target: int

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        if sum(counts) > self.n_target:
            raise ValueError(
                f"counts sum to {sum(counts)}, above the horizon {self.n_target}"
            )

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def k(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class Seed:
    """64-bit seed. ``spawn`` derives stream-independent child seeds, so
    parallel trials reproduce regardless of scheduling order."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.value)))

    def spawn(self, *key: int) -> "Seed":
        ss = np.random.SeedSequence([self.value, *key])
        return Seed(int(ss.generate_state(1, np.uint64)[0]))


def empirical_estimate(counts: CountVector) -> Categorical:
    """Counts normalised by their sum, i.e. the student's plug-in estimate."""
    total = counts.total
    if total == 0:
        raise ValueError("no observations")
    return Categorical(tuple(c / total for c in counts.counts))


def l1_error(a: Categorical, b: Categorical) -> float:
    """l1 distance between two distributions on the same alphabet."""
    if a.k != b.k:
        raise ValueError(f"dimension mismatch: {a.k} vs {b.k}")
    return math.fsum(abs(x - y) for x, y in zip(a.probs, b.probs))


def sample_sequence(dist: Categorical, n: int, seeds: Sequence[Seed]) -> np.ndarray:
    """Draw n i.i.d. observations from ``dist`` per seed, as the rows of a
    (len(seeds), n) int array of outcome indices.

    Identical (dist, n, seed) produce identical rows: each row's draws are
    uniforms from its own seed's PCG64 stream mapped through the cumulative
    distribution, with no platform-dependent shortcuts.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    u = np.array([seed.rng().random(n) for seed in seeds]).reshape(len(seeds), n)
    idx = np.searchsorted(np.cumsum(dist.probs), u, side="right")
    # The cumulative sum can undershoot 1.0 by an ulp; clamp the
    # (measure-zero) overflow.
    return np.minimum(idx, dist.k - 1)
