"""Value types and sampling primitives shared by every other module.

Outcome alphabets are indexed 0..K-1 where K is the number of distinct
values (K >= 2 everywhere). ``ConfigError`` marks bad input (exit 2 in the
CLI) and ``CeilingExceededError`` a run too large for the machine (exit 3);
any other ``ValueError`` is a bug. All types are immutable; sampling
takes an explicit seed per stream, so there is no shared generator state
to protect. Seeds are plain integers in [0, 2**64); ``spawn`` derives
child seeds as a uint64 array. A stream is a row of an int array of outcome
indices. Its uniforms are numpy's ``SeedSequence -> PCG64 ->
Generator.random`` stream for its seed, rebuilt bit for bit: stepped once
per column, vectorised over the seeds, at ~25 us a column (one seed x
100,000 draws takes ~2.5 s).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np


class ConfigError(ValueError):
    """Bad input: a configuration, flag or file the program cannot run."""


class CeilingExceededError(RuntimeError):
    """The run would pass a resource ceiling: solver states, ``bounds``
    trials or draws per grid point, or sampled draw units."""


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
    """Per-outcome tallies of the observations recorded so far."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(map(operator.index, self.counts))
        object.__setattr__(self, "counts", counts)
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def k(self) -> int:
        return len(self.counts)


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


# numpy's SeedSequence (4-word pool) and PCG64 constants.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """numpy's SeedSequence word hash, whose constant advances per call."""
    def hash_words(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _M32
        value = value * np.uint32(const)
        return value ^ (value >> 16)
    return hash_words


def _seed_words(entries: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(list(row)).generate_state(n_words, np.uint64)`` for
    every row of a (rows x m) uint64 array, as a (rows x n_words) array."""
    # numpy coerces each entry to its little-endian 32-bit words, the high
    # one only when nonzero; words past a row's length stay zero.
    rows, m = entries.shape
    words = np.zeros((rows, max(2 * m, 4)), dtype=np.uint32)
    length = np.zeros(rows, dtype=np.intp)
    every = np.arange(rows)
    for entry in entries.T:
        words[every, length] = entry & _M32
        words[every, length + 1] = entry >> 32  # the next entry overwrites a zero
        length += 1 + (entry >> 32 > 0)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> 16)

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, words.shape[1]):
        for dst in range(4):
            mixed = mix(pool[dst], hashmix(words[:, src]))
            pool[dst] = np.where(src < length, mixed, pool[dst])
    generate = _hasher(_INIT_B, _MULT_B)
    out = np.column_stack([generate(pool[i % 4]) for i in range(2 * n_words)])
    return out.astype("<u4").view("<u8").astype(np.uint64)


def spawn(root: int, keys: Sequence[Sequence[int]]) -> np.ndarray:
    """The uint64 child seed of ``root`` for each key: the first word numpy's
    ``SeedSequence([root, *key])`` generates, so trials reproduce regardless
    of scheduling order. Keys are equally long; the root and every key entry
    are integers in [0, 2**64)."""
    root = operator.index(root)
    rows = [(root, *map(operator.index, key)) for key in keys]
    if not all(0 <= v < 2**64 for row in [(root,), *rows] for v in row):
        raise ValueError("seeds and spawn keys must be integers in [0, 2**64)")
    if not rows:
        return np.empty(0, dtype=np.uint64)
    return _seed_words(np.array(rows, dtype=np.uint64), 1)[:, 0]


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """(a * b) mod 2**128 on (high, low) uint64 limbs, with broadcasting. Limbs
    must be arrays: NumPy 1.x turns a uint64 scalar and a Python int into float64."""
    a1, a0, b1, b0 = a_lo >> 32, a_lo & _M32, b_lo >> 32, b_lo & _M32
    low, cross, cross2 = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> 32) + (cross & _M32) + (cross2 & _M32)
    hi = a1 * b1 + (cross >> 32) + (cross2 >> 32) + (mid >> 32) + a_hi * b_lo + a_lo * b_hi
    return hi, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _uniforms(values: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """Yield column t of ``np.random.default_rng(v).random(n)`` for every
    value v, stepping each row's PCG64 state x to M * x + inc once per column."""
    seed_hi, seed_lo, inc_hi, inc_lo = _seed_words(values[:, None], 4).T
    inc_hi, inc_lo = (inc_hi << 1) | (inc_lo >> 63), (inc_lo << 1) | 1  # 2 * stream + 1
    mult = np.array([[_PCG_MULT >> 64], [_PCG_MULT & 2**64 - 1]], np.uint64)  # see _mul128

    def step(hi: np.ndarray, lo: np.ndarray):
        return _add128(*_mul128(*mult, hi, lo), inc_hi, inc_lo)

    # Seeding is one step from seed + inc; each draw steps once and reads the state.
    hi, lo = step(*_add128(seed_hi, seed_lo, inc_hi, inc_lo))
    for _ in range(n):
        hi, lo = step(hi, lo)
        out, rot = hi ^ lo, hi >> 58  # XSL-RR output
        out = (out >> rot) | (out << ((np.uint64(64) - rot) & np.uint64(63)))
        yield (out >> 11) * (1.0 / 2**53)


def sample_sequence(dist: Categorical, n: int, seeds: np.ndarray) -> np.ndarray:
    """Draw n i.i.d. observations from ``dist`` per seed (uint64 values, as
    ``spawn`` returns them), as the rows of a (len(seeds), n) int array of
    outcome indices.

    Identical (dist, n, seed) produce identical rows: each row's draws are
    uniforms from its own seed's PCG64 stream mapped through the cumulative
    distribution. Meant for many short rows: a column costs ~25 us at any seed count.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    seeds = np.asarray(seeds, dtype=np.uint64)
    cdf = np.cumsum(dist.probs)
    streams = np.empty((len(seeds), n), dtype=np.intp)
    for t, u in enumerate(_uniforms(seeds, n)):
        streams[:, t] = np.searchsorted(cdf, u, side="right")
    # The cumulative sum can undershoot 1.0 by an ulp; clamp the (measure-zero) overflow.
    return np.minimum(streams, dist.k - 1, out=streams)
