"""Running a teacher policy over realised streams.

A replay feeds the policy states built from CORRECTED counts: the student
only ever sees what the teacher lets through, so the sufficient statistic
tracks the altered stream, with the current raw observation tallied on
top. Streams are the rows of a (trials x n) int array; ``replays`` is the
one path from a source model to corrected counts.

A replay steps every (start budget, trial) in lockstep, each holding only
the index of its post-decision (counts, budget left) pair among the
stage's distinct pairs: the policy is asked once per distinct state,
whatever the budget, and ``replays`` hands each budget's final counts over
as ``distinct_rows`` gives them, so no caller sorts the trials.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Protocol

import numpy as np

from .core import Categorical, CountVector
from .dp import solve
from .mdp import Action, BudgetExhaustedError, MdpSpec, TeacherState, TerminalReward


class TeacherPolicy(Protocol):
    def action_for(self, state: TeacherState) -> Action: ...


def _check_policy(policy: TeacherPolicy, k: int, n: int, budget: int) -> None:
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    solved = (getattr(policy, "k", None), getattr(policy, "n", None),
              getattr(policy, "budgets", None))
    if solved[0] not in (None, k) or solved[1] not in (None, n) \
            or not (solved[2] is None or budget in solved[2]):
        raise ValueError(
            f"policy solved for (k, n, budgets)={solved}, "
            f"replay asked for ({k}, {n}, {budget})"
        )


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    ``apply_action``'s checks. Returns the corrected streams, which only
    this path builds, the final counts (trials x k) and each trial's spend."""
    corrected = np.empty_like(streams)
    pairs, pair = _replay(streams, k, policy, (budget,), corrected)
    final = pairs[pair[0]]
    return corrected, final[:, :k], budget - final[:, k]


def _replay(
    streams: np.ndarray, k: int, policy: TeacherPolicy, budgets: tuple[int, ...],
    corrected: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The final (counts..., budget left) rows of the distinct start ``budgets``
    as ``distinct_rows`` gives them, and each (budget, trial)'s row (budgets x
    trials); the first budget's corrected streams go into ``corrected`` if given."""
    trials, n = streams.shape
    for budget in budgets:
        _check_policy(policy, k, n, budget)
    if streams.size and not 0 <= streams.min() <= streams.max() < k:
        raise ValueError(f"stream values must lie in [0, {k})")
    # distinct post-decision rows (counts..., remaining) and each (budget, trial)'s row
    pairs = np.array([[0] * k + [budget] for budget in budgets], dtype=np.int64)
    pair = np.repeat(np.arange(len(budgets))[:, None], trials, axis=1)
    for t in range(n):
        # the distinct (pair, observation) keys, below len(pairs) * k <= trials * |budgets| * k
        key = pair * k + streams[None, :, t]
        present = np.bincount(key.ravel(), minlength=len(pairs) * k) > 0
        keys = np.flatnonzero(present)
        which = (np.cumsum(present) - 1)[key]
        states = pairs[keys // k]
        seen = keys % k
        every = np.arange(len(keys))
        states[every, seen] += 1
        targets = np.array([
            policy.action_for(TeacherState(tuple(arrived), left, y)).target
            for *arrived, left, y in np.column_stack((states, seen)).tolist()
        ], dtype=np.int64)
        outside = (targets < 0) | (targets >= k)
        if outside.any():
            raise ValueError(f"action target {targets[outside][0]} outside the alphabet")
        changed = targets != seen
        if (changed & (states[:, k] < 1)).any():
            raise BudgetExhaustedError("budget exhausted")
        states[every, seen] -= 1
        states[every, targets] += 1
        states[:, k] -= changed
        pairs, after = distinct_rows(states)
        if corrected is not None:
            corrected[:, t] = targets[which[0]]
        pair = after[which]
    return pairs, pair


def replays(
    streams: np.ndarray,
    model: Categorical,
    reward: TerminalReward,
    budgets: Iterable[int],
) -> Iterator[tuple[int, tuple[np.ndarray, np.ndarray], np.ndarray]]:
    """Yield ``(budget, counts, budget_spent)`` per budget, in the order
    given, for the rows of ``streams`` (trials x n): the final corrected
    counts (trials x k) as ``distinct_rows`` gives them, and the budget
    spent per trial, building no corrected stream. One solve and one
    replay, each started from every budget, serve them all."""
    if len(streams) == 0:
        raise ValueError("no streams to replay")
    budgets = tuple(budgets)
    policy = solve(MdpSpec(n=streams.shape[1], model=model, reward=reward), budgets)
    distinct = tuple(dict.fromkeys(budgets))
    pairs, pair = _replay(streams, model.k, policy, distinct)
    # final pairs that differ only in budget left share their counts
    counts, which = distinct_rows(pairs[:, :model.k])
    for budget in budgets:
        final = pair[distinct.index(budget)]
        present = np.bincount(which[final], minlength=len(counts)) > 0
        row = (np.cumsum(present) - 1)[which][final]
        yield budget, (counts[present], row), budget - pairs[final, model.k]


def per_distinct_counts(f: Callable[[CountVector], Any],
                        counts: tuple[np.ndarray, np.ndarray]) -> list:
    """``f`` of each trial's count row, in trial order, evaluated once per
    distinct row; ``counts`` is a (trials x k) count array as
    ``distinct_rows`` gives it, such as a replay's final counts."""
    rows, which = counts
    values = [f(CountVector(row)) for row in rows.tolist()]
    return [values[i] for i in which.tolist()]
