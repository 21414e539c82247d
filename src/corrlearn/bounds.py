"""Variance-decrease bounds for the projected-sum estimator, with Monte
Carlo verification.

Setup: Y is a sum of N i.i.d. draws on {0,...,M}; the corrected sum moves
Y by at most B units toward the target mean. A Hoeffding tail argument
gives the absolute bound var[Y~/N] <= M^2 exp(-2 B^2 / (N M^2)), which is
what the test suite asserts.

A ratio-form bound (6M/(5M+1)) exp(.) also circulates; its derivation
normalises by a per-draw variance of (5M^2+M)/6, which overstates the
true Unif{0..M} variance M(M+2)/12. The ratio bound is therefore reported
for reference but never asserted; ``uniform_variance`` returns both
constants so the discrepancy stays visible. ``monte_carlo_report``
returns a ``BoundReport``; the ``bounds`` experiment lays out its columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Categorical, Seed

MIN_TRIALS = 1000

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


class UniformVariance(NamedTuple):
    stated: float     # (5M^2 + M) / 6, as used in the ratio bound's derivation
    corrected: float  # M(M+2)/12, the actual variance of Unif{0..M}


def project_sum(y: int, target: float, budget: int, upper: int | None = None) -> int:
    """Integer in [y-budget, y+budget] nearest to ``target``.

    The window is clipped to [0, upper] when ``upper`` is given. Ties go
    to the smaller value: breaking them toward y instead would let the
    raw sum's randomness survive into the corrected one at half-integer
    targets, keeping its variance away from zero however large the
    budget (and past the variance-decrease bound this module verifies).
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if y < 0:
        raise ValueError("sum must be nonnegative")
    lo = max(0, y - budget)
    hi = y + budget
    if upper is not None:
        hi = min(hi, upper)
        if lo > hi:
            raise ValueError("projection window is empty")
    # The optimum is floor(target) or ceil(target) clipped into the window.
    cands = {min(max(math.floor(target), lo), hi), min(max(math.ceil(target), lo), hi)}
    return min(cands, key=lambda z: (abs(z - target), z))


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
        raise ValueError("n and m must be positive")
    if not 0 <= b <= n * m:
        raise ValueError("budget must lie in [0, n*m]")


def uniform_variance(m: int) -> UniformVariance:
    """Both per-draw variance constants for Unif{0..M}: the one the ratio
    bound's derivation uses and the true one."""
    if m < 1:
        raise ValueError("m must be positive")
    return UniformVariance(stated=(5 * m * m + m) / 6.0, corrected=m * (m + 2) / 12.0)


def monte_carlo_report(
    n: int,
    m: int,
    b: int,
    trials: int,
    seed: Seed,
    dist: Categorical | None = None,
) -> BoundReport:
    """Empirical variances of the raw and corrected mean estimates.

    Draws ``trials`` sums of n values on {0..m} (uniform unless ``dist``
    is given), projects each sum by at most b units toward n*mu, and
    returns sample variances of both scaled sums next to the analytic
    bounds. Deterministic per seed.
    """
    _check_grid(n, m, b)
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials")
    rng = seed.rng()
    if dist is None:
        draws = rng.integers(0, m + 1, size=(trials, n))
        mu = m / 2.0
    else:
        if dist.k != m + 1:
            raise ValueError(f"distribution has {dist.k} values, expected {m + 1}")
        cum = np.cumsum(dist.probs)
        draws = np.minimum(
            np.searchsorted(cum, rng.random((trials, n)), side="right"), m
        )
        mu = float(sum(v * p for v, p in enumerate(dist.probs)))
    y = draws.sum(axis=1)
    target = n * mu

    # Vectorised project_sum with a scalar target: the optimum is one of
    # floor/ceil(target) clipped into each trial's window; ties fall to
    # the floor side, matching the scalar tie rule.
    lo = np.maximum(y - b, 0)
    hi = np.minimum(y + b, n * m)
    z_f = np.clip(math.floor(target), lo, hi)
    z_c = np.clip(math.ceil(target), lo, hi)
    pick_c = np.abs(z_c - target) < np.abs(z_f - target)
    y_tilde = np.where(pick_c, z_c, z_f)
    moved = np.abs(y_tilde - y)
    if int(moved.max(initial=0)) > b:
        raise AssertionError("projection moved a sum beyond the budget")

    # Variances on the integer sums, scaled afterwards: integer-valued
    # floats sum exactly here, so a pinned corrected sum gives exactly 0.
    var_orig = float(np.var(y, ddof=1)) / (n * n)
    var_corr = float(np.var(y_tilde, ddof=1)) / (n * n)
    ratio = var_corr / var_orig if var_orig > 0 else math.nan
    return BoundReport(
        n=n, m=m, b=b, trials=trials,
        bound_abs=var_bound_abs(n, m, b),
        bound_ratio_paper=var_bound_ratio_paper(n, m, b),
        empirical_var_original=var_orig,
        empirical_var_corrected=var_corr,
        empirical_ratio=ratio,
    )
