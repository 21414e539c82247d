"""Independent oracles that only tests use: exhaustive or closed-form
answers to check the package's production paths against.

- ``brute_force_value``: unmemoised expectimax over post-decision pairs,
  through every observation outcome and every feasible action; checks
  the root values ``dp.solve`` returns.
- ``BinomialThresholdPolicy``: the closed-form two-outcome teacher.
- ``expected_online_error``: exact forward evaluation of any policy.
- ``project_sum``: the scalar projection that ``bounds.monte_carlo_report``
  vectorises.
- ``uniform_sum_moments``: exact variance and fourth central moment of
  the raw and the projected mean estimate that ``monte_carlo_report``
  samples, by integer convolution.
- ``traced_memory``: the bytes a call leaves allocated and its peak,
  under ``tracemalloc``, for the memory tests.

``BinomialThresholdPolicy`` attains the optimal expected error (the tests
check it to 1e-12 for n <= 30 and at n = 200) but not all the optimal
actions: at value ties, exact or decided by float rounding, it can pick
the other action, so the ``binomial`` experiment keeps the solver. No
k >= 3 analogue is known: a quota rule that changes an over-quota value
to the value furthest under its apportioned quota is up to 24% above the
optimal expected error (k=3 with n <= 15 and k=4 with n <= 10, budgets 1
and 2), so it is not in the package.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from corrlearn.core import Categorical, CeilingExceededError, CountVector
from corrlearn.mdp import (
    Action,
    MdpSpec,
    TeacherState,
    apply_action,
    arrivals,
    feasible_actions,
    l1_terminal_reward,
)
from corrlearn.teacher import TeacherPolicy, _check_policy

DEFAULT_BRUTE_CEILING = 100_000_000


def brute_force_value(
    spec: MdpSpec, budget: int, ceiling: int = DEFAULT_BRUTE_CEILING
) -> float:
    """Optimal expected reward at ``budget`` by raw recursion over
    post-decision pairs, for cross-checking ``solve``.

    No memoisation on purpose: the recursion shares nothing with the
    backward-induction code path beyond the transition rules themselves.
    """
    paths = (spec.k ** spec.n) * ((spec.k + 1) ** spec.n)
    if paths > ceiling:
        raise CeilingExceededError(
            f"recursion size {paths} exceeds the ceiling {ceiling}"
        )

    def value(counts: tuple[int, ...], left: int) -> float:
        if sum(counts) == spec.n:
            return spec.reward.evaluate(CountVector(counts))
        return sum(
            p * max(value(*apply_action(s, a)) for a in feasible_actions(s, spec.k))
            for s, p in arrivals(counts, left, spec)
        )

    return value((0,) * spec.k, budget)


@dataclass(frozen=True)
class BinomialThresholdPolicy:
    """Closed-form two-outcome rule: keep while the running count of the
    current value stays at or below round(theta0*n), otherwise flip it.

    Rounding is half away from zero, pinned so threshold behaviour is
    reproducible.
    """

    theta0: Categorical
    n: int
    k: int = 2

    def action_for(self, state: TeacherState) -> Action:
        if self.theta0.k != 2 or len(state.counts) != 2:
            raise ValueError("closed-form policy is two-outcome only")
        threshold = math.floor(self.theta0.probs[state.last_obs] * self.n + 0.5)
        if state.budget <= 0 or state.counts[state.last_obs] <= threshold:
            return Action(state.last_obs)
        return Action(1 - state.last_obs)


def expected_online_error(
    policy: TeacherPolicy, model: Categorical, n: int, budget: int
) -> float:
    """Exact expected l1 error against ``model`` of replaying ``policy`` on
    n draws from ``model``, by forward evaluation: the probability mass of
    each post-decision (counts, budget) pair is pushed through the next
    draw and the policy's decision, so the cost grows with the reachable
    pairs, not with the k^n streams.
    """
    _check_policy(policy, model.k, n, budget)
    spec = MdpSpec(n=n, model=model, reward=l1_terminal_reward(model))
    mass = {((0,) * model.k, budget): 1.0}
    for _ in range(n):
        ahead: dict[tuple[tuple[int, ...], int], float] = {}
        for (counts, left), weight in mass.items():
            for state, p in arrivals(counts, left, spec):
                pair = apply_action(state, policy.action_for(state))
                ahead[pair] = ahead.get(pair, 0.0) + weight * p
        mass = ahead
    return -math.fsum(
        weight * spec.reward.evaluate(CountVector(counts))
        for (counts, _), weight in mass.items()
    )


def project_sum(y: int, target: float, budget: int, upper: int | None = None) -> int:
    """Integer in [y-budget, y+budget] nearest to ``target``.

    The window is clipped to [0, upper] when ``upper`` is given. Ties go
    to the smaller value: breaking them toward y instead would let the
    raw sum's randomness survive into the corrected one at half-integer
    targets, keeping its variance away from zero however large the
    budget (and past the variance-decrease bound ``bounds`` verifies).
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


def uniform_sum_moments(n: int, m: int, b: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """Exact ``(variance, fourth central moment)`` of Y/n and of Y~/n, as
    ``Fraction``s, where Y sums n i.i.d. uniform draws on {0..m} and
    Y~ = Y + clip(n*m // 2 - Y, -b, b), ``monte_carlo_report``'s projection.

    Y's distribution is the n-fold convolution of m + 1 unit weights, in
    Python ints, so a pinned Y~ has moments of exactly 0.
    """
    ways = [1]  # ways[y]: the number of draw sequences that sum to y
    for _ in range(n):
        wider = [0] * (len(ways) + m)
        for y, w in enumerate(ways):
            for step in range(m + 1):
                wider[y + step] += w
        ways = wider
    total = (m + 1) ** n

    def moments(values: list[int]) -> tuple[Fraction, Fraction]:
        mean = Fraction(sum(w * v for w, v in zip(ways, values)), total)
        var = sum(w * (v - mean) ** 2 for w, v in zip(ways, values)) / total
        mu4 = sum(w * (v - mean) ** 4 for w, v in zip(ways, values)) / total
        return var / n**2, mu4 / n**4

    sums = range(n * m + 1)
    return moments(list(sums)), moments([y + max(-b, min(b, n * m // 2 - y)) for y in sums])


def traced_memory(call: Callable[[], Any], warm_up: Callable[[], Any]) -> tuple[int, int]:
    """``(retained, peak)`` bytes of ``call()`` under ``tracemalloc``: what
    it leaves allocated, its result included, and the most it held at once.

    ``warm_up()`` runs first, untraced, so one-off set-up (imports, caches,
    interned constants) is not charged to the call.
    """
    warm_up()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = call()  # held, so what it keeps counts as retained
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current - before, peak
