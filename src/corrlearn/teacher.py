"""Online execution of a teacher policy over a realised observation stream.

The replay feeds the policy states built from CORRECTED counts: the
student only ever sees what the teacher lets through, so the sufficient
statistic tracks the altered stream, with the current raw observation
tallied on top.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Protocol

from .core import (
    Categorical,
    ObservationSequence,
    counts_from_sequence,
    empirical_estimate,
    l1_error,
)
from .mdp import Action, TeacherState


class TeacherPolicy(Protocol):
    def action_for(self, state: TeacherState) -> Action: ...


@dataclass(frozen=True)
class OnlineTrace:
    original: ObservationSequence
    corrected: ObservationSequence
    actions: tuple[Action, ...]
    budget_spent: int


def run_online(
    seq: ObservationSequence, policy: TeacherPolicy, budget: int
) -> OnlineTrace:
    """Replay ``seq`` through ``policy``, spending at most ``budget`` changes."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    expected = (getattr(policy, "k", None), getattr(policy, "n", None),
                getattr(policy, "budget", None))
    if expected[0] not in (None, seq.k) or expected[1] not in (None, len(seq)) \
            or expected[2] not in (None, budget):
        raise ValueError(
            f"policy solved for (k, n, budget)={expected}, "
            f"replay asked for ({seq.k}, {len(seq)}, {budget})"
        )
    counts = [0] * seq.k
    remaining = budget
    corrected: list[int] = []
    actions: list[Action] = []
    for y in seq.values:
        counts[y] += 1
        action = policy.action_for(TeacherState(tuple(counts), remaining, y))
        if action.target != y:
            if remaining < 1:
                raise ValueError("policy changed an observation with no budget left")
            counts[y] -= 1
            counts[action.target] += 1
            remaining -= 1
        corrected.append(action.target)
        actions.append(action)
    return OnlineTrace(
        original=seq,
        corrected=ObservationSequence(tuple(corrected), seq.k),
        actions=tuple(actions),
        budget_spent=budget - remaining,
    )


def binomial_policy_action(state: TeacherState, theta0: Categorical, n: int) -> Action:
    """Closed-form two-outcome rule: keep while the running count of the
    current value stays at or below round(theta0*n), otherwise flip it.

    Rounding is half away from zero, pinned so threshold behaviour is
    reproducible.
    """
    if theta0.k != 2 or len(state.counts) != 2:
        raise ValueError("closed-form policy is two-outcome only")
    threshold = math.floor(theta0.probs[state.last_obs] * n + 0.5)
    if state.budget <= 0 or state.counts[state.last_obs] <= threshold:
        return Action(state.last_obs)
    return Action(1 - state.last_obs)


@dataclass(frozen=True)
class BinomialThresholdPolicy:
    """Policy object wrapping ``binomial_policy_action`` for replays."""

    theta0: Categorical
    n: int
    k: int = 2

    def action_for(self, state: TeacherState) -> Action:
        return binomial_policy_action(state, self.theta0, self.n)


def expected_online_error(
    policy: TeacherPolicy,
    model: Categorical,
    n: int,
    budget: int,
    theta0: Categorical | None = None,
    ceiling: int = 10_000_000,
) -> float:
    """Exact expected l1 error of a policy, by enumerating all k^n streams.

    Streams are drawn from ``model``; the error is measured against
    ``theta0`` (defaults to the model, the well-specified case).
    """
    if theta0 is None:
        theta0 = model
    if model.k ** n > ceiling:
        raise ValueError(f"enumeration size {model.k ** n} exceeds {ceiling}")
    total = 0.0
    for values in itertools.product(range(model.k), repeat=n):
        prob = 1.0
        for v in values:
            prob *= model.probs[v]
        if prob == 0.0:
            continue
        trace = run_online(ObservationSequence(values, model.k), policy, budget)
        err = l1_error(empirical_estimate(counts_from_sequence(trace.corrected)), theta0)
        total += prob * err
    return total
