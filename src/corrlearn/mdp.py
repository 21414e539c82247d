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


@dataclass(frozen=True)
class TeacherState:
    counts: tuple[int, ...]
    budget: int
    last_obs: int

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        if not 0 <= self.last_obs < len(self.counts):
            raise ValueError("last observation outside the alphabet")
        if self.counts[self.last_obs] < 1:
            raise ValueError("the current observation must already be tallied")

    @property
    def stage(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
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
    k: int
    n: int
    budget: int
    model: Categorical  # the teacher's source model; theta0 unless misspecified
    reward: TerminalReward = field(compare=False)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("need at least two outcome values")
        if self.n < 1:
            raise ValueError("horizon must be at least 1")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        if self.model.k != self.k:
            raise ValueError(f"model has {self.model.k} outcomes, spec says {self.k}")


def state_count_bound(k: int, n: int, budget: int | None = None) -> int:
    """Number of count vectors with 1 <= sum <= n, via multiset coefficients.

    With ``budget`` given, multiplies by (budget+1)*k for a bound on full
    (counts, budget, observation) states. Exact integer arithmetic.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    vectors = sum(math.comb(k + m - 1, m) for m in range(1, n + 1))
    if budget is None:
        return vectors
    return vectors * (budget + 1) * k


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
    counts: tuple[int, ...], budget: int, spec: MdpSpec
) -> list[tuple[TeacherState, float]]:
    """States after the next observation is tallied onto the decided
    ``counts``, in outcome order; zero-probability outcomes are pruned."""
    out = []
    for v, p in enumerate(spec.model.probs):
        if p <= 0.0:
            continue
        nxt = list(counts)
        nxt[v] += 1
        out.append((TeacherState(tuple(nxt), budget, v), p))
    return out


def transitions(
    state: TeacherState, action: Action, spec: MdpSpec
) -> list[tuple[TeacherState, float]]:
    """Successor distribution: act, then tally one fresh observation."""
    if state.stage >= spec.n:
        raise ValueError("no further observations past the horizon")
    return arrivals(*apply_action(state, action), spec)


def terminal_value(state: TeacherState, action: Action, spec: MdpSpec) -> float:
    """Reward for the final decision, taken on the last observation."""
    if state.stage != spec.n:
        raise ValueError("terminal value requested on a non-terminal state")
    counts, _ = apply_action(state, action)
    return spec.reward.evaluate(CountVector(counts, spec.n))


def initial_states(spec: MdpSpec) -> list[tuple[TeacherState, float]]:
    """States right after the first observation, with their probabilities."""
    return arrivals((0,) * spec.k, spec.budget, spec)
