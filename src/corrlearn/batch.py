"""Offline correction of a fully observed count vector.

The batch corrector sees the whole realisation at once and moves up to b
observations between outcome classes to minimise the student's l1 error.
It lower-bounds anything an online teacher can achieve on the same data,
and the rounding floor ``e_min`` lower-bounds both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import Categorical, CountVector, empirical_estimate, l1_error


class EMin(NamedTuple):
    error: float
    achiever: CountVector


@dataclass(frozen=True)
class BatchResult:
    corrected: CountVector
    error: float


def _apportion(theta0: Categorical, n: int) -> tuple[int, ...]:
    """Largest-remainder rounding of theta0*n to integer counts summing to n.

    Each target is rounded down and the leftover units go to the largest
    fractional parts, ties to the lowest index. For an l1 objective this
    is an exact minimiser: any optimum rounds each target to its floor or
    ceiling, and the leftover-unit assignment above maximises the gain.
    """
    targets = [p * n for p in theta0.probs]
    floors = [math.floor(t) for t in targets]
    remainder = n - sum(floors)
    fracs = sorted(
        range(theta0.k), key=lambda i: (-(targets[i] - floors[i]), i)
    )
    counts = list(floors)
    for i in fracs[:remainder]:
        counts[i] += 1
    return tuple(counts)


def e_min(n: int, theta0: Categorical) -> EMin:
    """Minimum l1 error reachable with n samples, over all count vectors.

    The floor exists because counts are integers: theta0*n generally is
    not. Largest-remainder apportionment (``_apportion``) attains it exactly.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    counts = CountVector(_apportion(theta0, n))
    return EMin(l1_error(empirical_estimate(counts), theta0), counts)


def attainable_error(
    n: int, theta0: Categorical, budget: int, theta_hat: Categorical
) -> float:
    """Best error reachable from estimate ``theta_hat`` with ``budget`` moves.

    Binomial-only closed form: each moved observation shrinks the l1 error
    by exactly 2/n until the rounding floor is hit.
    """
    if theta0.k != 2 or theta_hat.k != 2:
        raise ValueError("binomial-only formula")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    return max(l1_error(theta0, theta_hat) - 2 * budget / n, e_min(n, theta0).error)


def _greedy_correct(
    counts: tuple[int, ...], theta0: Categorical, budget: int, n: int
) -> tuple[int, ...]:
    """Make up to ``budget`` steepest unit moves; stop when none strictly helps.

    Per-class cost |c_i - n*theta_i| is convex in c_i, so steepest unit
    moves reach the exact optimum. Each step takes the move of largest
    gain; among moves of equal gain (within 1e-15) it takes the first
    (source, target) pair in ascending index order.
    """
    targets = [p * n for p in theta0.probs]
    current = list(counts)
    for _ in range(budget):
        best_gain = 0.0
        best_pair: tuple[int, int] | None = None
        for i in range(len(current)):
            if current[i] == 0:
                continue
            gain_dec = abs(current[i] - targets[i]) - abs(current[i] - 1 - targets[i])
            for j in range(len(current)):
                if j == i:
                    continue
                gain_inc = abs(current[j] - targets[j]) - abs(current[j] + 1 - targets[j])
                gain = gain_dec + gain_inc
                if gain > best_gain + 1e-15:
                    best_gain = gain
                    best_pair = (i, j)
        if best_pair is None:
            break
        i, j = best_pair
        current[i] -= 1
        current[j] += 1
    return tuple(current)


def batch_correct(
    counts: CountVector, theta0: Categorical, budget: int
) -> BatchResult:
    """Optimally re-assign at most ``budget`` observations between classes.

    One budget unit moves one observation (count distance 2). The optimum
    is reached by steepest unit moves; when several corrected vectors tie,
    the result is the one their tie rule reaches (see ``_greedy_correct``).
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if counts.k != theta0.k:
        raise ValueError(f"dimension mismatch: {counts.k} vs {theta0.k}")
    n = counts.total
    if n < 1:
        raise ValueError("no observations")
    corrected = CountVector(_greedy_correct(counts.counts, theta0, budget, n))
    return BatchResult(corrected, l1_error(empirical_estimate(corrected), theta0))
