"""Variance-decrease bounds for the projected-sum estimator, with Monte
Carlo verification.

Setup: Y is a sum of N i.i.d. draws on {0,...,M}; the corrected sum moves
Y by at most B units toward the target mean. A Hoeffding tail argument
gives the absolute bound var[Y~/N] <= M^2 exp(-2 B^2 / (N M^2)), which is
what the test suite asserts.

A ratio-form bound (6M/(5M+1)) exp(.) also circulates; its derivation
normalises by a per-draw variance of (5M^2+M)/6, which overstates the
true Unif{0..M} variance M(M+2)/12. The ratio bound is therefore reported
for reference but never asserted. Exact variances (Y's pmf by
convolution) show it still holds for N <= 40, M in {1,2,3,4,6,8},
B <= min(NM, 30): the ratio meets it only at B=0, M=1, where nothing
moves, and stays below 0.775 of it for B >= 1, so only Monte-Carlo noise
can put the empirical ratio above it. ``monte_carlo_report`` returns a
``BoundReport``; the ``bounds`` experiment lays out its columns.

``monte_carlo_report`` draws uniformly in blocks of at most
``CHUNK_ROWS`` rows and ``CHUNK_ROWS * 25`` values from the one generator,
as 32-bit values while M < 2**32 (the same stream numpy gives as int64),
and keeps only the per-trial sums, so its memory is O(trials) whatever n
is, and its numbers are those of one (trials, n) draw. ``project_sums``
moves each sum to the point of [Y-B, Y+B] nearest the target, ties to the
smaller value. ``check_point`` rejects a grid point or trial count as bad
input (``ConfigError``, exit 2), and more than ``MAX_TRIALS`` trials or
``MAX_TRIALS * 25`` draws with ``CeilingExceededError`` (exit 3), before
any draw. The ``bounds`` experiment checks every point first, then runs
the points in forked processes, one share per usable CPU, while the whole
grid's trials stay within ``MAX_TRIALS``; each point's numbers depend only
on its own seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CeilingExceededError, ConfigError

MIN_TRIALS = 1000
# Rows of draws held at once up to n = 25, fewer beyond so that a block
# stays at CHUNK_ROWS * 25 values: 8192-16384 rows ran the 36-point,
# 100k-trial ``bounds`` grid fastest; 2048 and 65536 took ~10% longer.
CHUNK_ROWS = 8192
# A grid point's peak RSS grows by 24 bytes per trial whatever n is: the
# sums, the corrected sums and np.var's float copy (VmHWM growth at 2-4M
# trials, n in {5, 25, 100}, Python 3.11). So 50M trials take ~1.2 GB.
MAX_TRIALS = 50_000_000


@dataclass(frozen=True)
class BoundReport:
    n: int
    m: int
    b: int
    trials: int
    bound_abs: float
    bound_ratio_paper: float
    empirical_var_original: float
    empirical_var_corrected: float
    empirical_ratio: float


def var_bound_abs(n: int, m: int, b: int) -> float:
    """Hoeffding-derived absolute bound on var[corrected sum / N]."""
    _check_grid(n, m, b)
    return m * m * math.exp(-2.0 * b * b / (n * m * m))


def var_bound_ratio_paper(n: int, m: int, b: int) -> float:
    """Ratio-form bound (6M/(5M+1)) exp(-2B^2/(NM^2)), reproduced exactly
    as stated in its derivation; reported, not asserted (see module docs)."""
    _check_grid(n, m, b)
    return (6.0 * m / (5.0 * m + 1.0)) * math.exp(-2.0 * b * b / (n * m * m))


def _check_grid(n: int, m: int, b: int) -> None:
    if n < 1 or m < 1:
        raise ConfigError("n and m must be positive")
    if n * m >= 2**63:
        raise ConfigError("n*m must stay below 2**63, the int64 range of the sums")
    if not 0 <= b <= n * m:
        raise ConfigError("budget must lie in [0, n*m]")


def check_point(n: int, m: int, b: int, trials: int) -> None:
    """Raise what ``monte_carlo_report(n, m, b, trials, ...)`` would raise
    before drawing: ``ConfigError`` or ``CeilingExceededError``."""
    _check_grid(n, m, b)
    if trials < MIN_TRIALS:
        raise ConfigError(f"need at least {MIN_TRIALS} trials")
    if trials > MAX_TRIALS:
        raise CeilingExceededError(
            f"{trials} trials exceed the ceiling {MAX_TRIALS} for a bounds grid point"
        )
    if trials * n > MAX_TRIALS * 25:  # the draws MAX_TRIALS allows at the default n
        raise CeilingExceededError(
            f"{trials} trials at n={n} take {trials * n} draws, above the ceiling "
            f"{MAX_TRIALS * 25} for a bounds grid point"
        )


def project_sums(y: np.ndarray, n: int, m: int, b: int) -> np.ndarray:
    """The int64 sums ``y``, each in [0, n*m], moved by at most b toward
    n*m/2: to the point of [y-b, y+b] nearest n*m/2, ties to the smaller
    value. That is y plus its distance to n*m // 2 clipped to [-b, b];
    n*m // 2 lies in [0, n*m] too, so no moved sum leaves that range."""
    moved = np.subtract(n * m // 2, y)
    np.clip(moved, -b, b, out=moved)
    if moved.max(initial=0) > b or moved.min(initial=0) < -b:
        raise AssertionError("projection moved a sum beyond the budget")
    return np.add(moved, y, out=moved)


def monte_carlo_report(n: int, m: int, b: int, trials: int, seed: int) -> BoundReport:
    """Empirical variances of the raw and corrected mean estimates.

    Draws ``trials`` sums of n uniform values on {0..m}, projects each sum
    by at most b units toward n*m/2, and returns sample variances of both
    scaled sums next to the analytic bounds. Deterministic per seed.
    """
    check_point(n, m, b, trials)
    rng = np.random.default_rng(seed)
    y = np.empty(trials, dtype=np.int64)
    # numpy's ``integers`` stream depends neither on how the rows are split
    # nor, for ranges below 2**32, on the dtype: both draw 32-bit words
    dtype = np.uint32 if m < 2**32 else np.int64
    step = min(CHUNK_ROWS, max(1, CHUNK_ROWS * 25 // n))
    for start in range(0, trials, step):
        rows = min(step, trials - start)
        block = rng.integers(0, m + 1, size=(rows, n), dtype=dtype)
        np.einsum("ij->i", block, out=y[start:start + rows], dtype=np.int64)

    corrected = project_sums(y, n, m, b)

    # Variances on the integer sums, scaled afterwards: integer-valued
    # floats sum exactly here, so a pinned corrected sum gives exactly 0.
    var_orig = float(np.var(y, ddof=1)) / (n * n)
    var_corr = float(np.var(corrected, ddof=1)) / (n * n)
    ratio = var_corr / var_orig if var_orig > 0 else math.nan
    return BoundReport(
        n=n, m=m, b=b, trials=trials,
        bound_abs=var_bound_abs(n, m, b),
        bound_ratio_paper=var_bound_ratio_paper(n, m, b),
        empirical_var_original=var_orig,
        empirical_var_corrected=var_corr,
        empirical_ratio=ratio,
    )
