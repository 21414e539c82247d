"""Exact construction of the online-correction decision process.

A state is (counts so far including the current observation, remaining
budget, current observation). The teacher either keeps the current
observation or re-labels it to another value, which costs one budget
unit; then the next observation arrives according to the teacher's model
of the source. Episodes end when the horizon's worth of observations has
been tallied, and only terminal states carry reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .core import Categorical, CountVector, empirical_estimate, l1_error


class BudgetExhaustedError(ValueError):
    """A change action was attempted with no budget left."""


@dataclass(frozen=True, slots=True)
class TeacherState:
    """Not re-checked: its only builders, ``arrivals`` and ``teacher._replay``, build it valid."""

    counts: tuple[int, ...]
    budget: int
    last_obs: int

    @property
    def stage(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True, slots=True)
class Action:
    """Re-label the current observation to ``target``; target == current
    observation means keep (and never costs budget)."""

    target: int


@dataclass(frozen=True)
class TerminalReward:
    """Episode-end score, a function of the final count vector only."""

    evaluate: Callable[[CountVector], float]


def l1_terminal_reward(theta0: Categorical) -> TerminalReward:
    """Negative l1 error of the final empirical estimate against theta0."""
    return TerminalReward(lambda counts: -l1_error(empirical_estimate(counts), theta0))


@dataclass(frozen=True)
class MdpSpec:
    n: int
    model: Categorical  # the teacher's source model; theta0 unless misspecified
    reward: TerminalReward = field(compare=False)
    k: int = field(init=False)  # the model's number of outcomes

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("horizon must be at least 1")
        object.__setattr__(self, "k", self.model.k)


def state_count_bound(k: int, n: int, budget: int) -> int:
    """Bound on the (counts, budget, observation) states up to ``budget``:
    the count vectors with 1 <= sum <= n, C(n+k, k) - 1 by the hockey-stick
    identity, times (budget+1)*k. Exact integer arithmetic."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    return (math.comb(n + k, k) - 1) * (budget + 1) * k


def apply_action(state: TeacherState, action: Action) -> tuple[tuple[int, ...], int]:
    """Counts and budget after the teacher's decision, before the next draw."""
    if not 0 <= action.target < len(state.counts):
        raise ValueError(f"action target {action.target} outside the alphabet")
    if action.target == state.last_obs:
        return state.counts, state.budget
    if state.budget < 1:
        raise BudgetExhaustedError("budget exhausted")
    counts = list(state.counts)
    counts[state.last_obs] -= 1
    counts[action.target] += 1
    return tuple(counts), state.budget - 1


def feasible_actions(state: TeacherState, k: int) -> list[Action]:
    """Keep first, then changes by ascending target; changes need budget."""
    actions = [Action(state.last_obs)]
    if state.budget >= 1:
        actions.extend(Action(t) for t in range(k) if t != state.last_obs)
    return actions


def arrivals(
    counts: tuple[int, ...], budget: int, spec: MdpSpec, shared: dict | None = None
) -> list[tuple[TeacherState, float]]:
    """States after the next observation is tallied onto the decided
    ``counts``, in outcome order; zero-probability outcomes are pruned.
    A ``shared`` dict maps each arrived count tuple to its first copy,
    which the states then hold (``dp.solve`` keeps one dict per stage)."""
    out = []
    for v, p in enumerate(spec.model.probs):
        if p <= 0.0:
            continue
        arrived = list(counts)
        arrived[v] += 1
        nxt = tuple(arrived)
        if shared is not None:
            nxt = shared.setdefault(nxt, nxt)
        out.append((TeacherState(nxt, budget, v), p))
    return out
