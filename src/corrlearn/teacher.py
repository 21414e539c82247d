"""Running a teacher policy: replays over realised streams, and the exact
expected error.

A replay feeds the policy states built from CORRECTED counts: the student
only ever sees what the teacher lets through, so the sufficient statistic
tracks the altered stream, with the current raw observation tallied on
top. Streams are the rows of a (trials x n) int array; ``replays`` is the
one path from a source model to corrected streams.

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
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Protocol

import numpy as np

from .core import Categorical, CountVector
from .dp import solve
from .mdp import (
    Action,
    BudgetExhaustedError,
    MdpSpec,
    TeacherState,
    TerminalReward,
    apply_action,
    arrivals,
    l1_terminal_reward,
)


class TeacherPolicy(Protocol):
    def action_for(self, state: TeacherState) -> Action: ...


def _check_policy(policy: TeacherPolicy, k: int, n: int, budget: int) -> None:
    solved = (getattr(policy, "k", None), getattr(policy, "n", None),
              getattr(policy, "budgets", None))
    if solved[0] not in (None, k) or solved[1] not in (None, n) \
            or not (solved[2] is None or budget in solved[2]):
        raise ValueError(
            f"policy solved for (k, n, budgets)={solved}, "
            f"replay asked for ({k}, {n}, {budget})"
        )


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D int array, in sorted order, and the
    position of each row among them."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    which = np.empty(len(rows), dtype=np.intp)
    which[order] = np.cumsum(first) - 1
    return ordered[first], which


def replay_all(
    streams: np.ndarray, k: int, policy: TeacherPolicy, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay the rows of ``streams`` (trials x n) stage by stage, asking
    ``policy`` once per distinct (counts, remaining, observation) state
    among them and applying its decisions to every trial at once, with
    ``apply_action``'s checks. Returns the corrected streams, the final
    counts (trials x k) and the budget each trial spent."""
    trials, n = streams.shape
    _check_policy(policy, k, n, budget)
    corrected = np.empty_like(streams)
    counts = np.zeros((trials, k), dtype=np.int64)
    remaining = np.full(trials, budget, dtype=np.int64)
    every = np.arange(trials)
    for t in range(n):
        observed = streams[:, t]
        counts[every, observed] += 1
        states, which = _distinct_rows(np.column_stack((counts, remaining, observed)))
        targets = np.array([
            policy.action_for(TeacherState(tuple(arrived), left, y)).target
            for *arrived, left, y in states.tolist()
        ], dtype=np.int64)
        outside = (targets < 0) | (targets >= k)
        if outside.any():
            raise ValueError(f"action target {targets[outside][0]} outside the alphabet")
        if ((targets != states[:, k + 1]) & (states[:, k] < 1)).any():
            raise BudgetExhaustedError("budget exhausted")
        corrected[:, t] = target = targets[which]
        counts[every, observed] -= 1
        counts[every, target] += 1
        remaining -= target != observed
    return corrected, counts, budget - remaining


def replays(
    streams: np.ndarray,
    model: Categorical,
    reward: TerminalReward,
    budgets: Iterable[int],
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(budget, counts, budget_spent)`` per budget, in the order
    given, for the rows of ``streams`` (trials x n): the final corrected
    counts (trials x k) and the budget spent per trial. One solve, started
    from every budget, serves them all.
    """
    if len(streams) == 0:
        raise ValueError("no streams to replay")
    budgets = tuple(budgets)
    policy = solve(MdpSpec(n=streams.shape[1], model=model, reward=reward), budgets)
    for budget in budgets:
        _, counts, spent = replay_all(streams, model.k, policy, budget)
        yield budget, counts, spent


def per_distinct_counts(f: Callable[[CountVector], Any], counts: np.ndarray) -> list:
    """``f`` of each row of a (trials x k) count array, such as a replay's
    final counts, in trial order, evaluated once per distinct row."""
    distinct, which = _distinct_rows(counts)
    values = [f(CountVector(row)) for row in distinct.tolist()]
    return [values[i] for i in which.tolist()]


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
