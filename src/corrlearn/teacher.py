"""Running a teacher policy: replays over realised streams, and the exact
expected error.

A replay feeds the policy states built from CORRECTED counts: the student
only ever sees what the teacher lets through, so the sufficient statistic
tracks the altered stream, with the current raw observation tallied on
top. ``replays`` is the one path from a source model to corrected streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Protocol, Sequence

from .core import Categorical, CountVector, ObservationSequence
from .dp import solve
from .mdp import (
    Action,
    MdpSpec,
    TeacherState,
    TerminalReward,
    apply_action,
    arrivals,
    l1_terminal_reward,
)


class TeacherPolicy(Protocol):
    def action_for(self, state: TeacherState) -> Action: ...


@dataclass(frozen=True)
class OnlineTrace:
    corrected: ObservationSequence
    counts: CountVector  # tally of ``corrected``
    budget_spent: int


def _check_policy(policy: TeacherPolicy, k: int, n: int, budget: int) -> None:
    expected = (getattr(policy, "k", None), getattr(policy, "n", None),
                getattr(policy, "budget", None))
    if expected[0] not in (None, k) or expected[1] not in (None, n) \
            or expected[2] not in (None, budget):
        raise ValueError(
            f"policy solved for (k, n, budget)={expected}, "
            f"replay asked for ({k}, {n}, {budget})"
        )


def run_online(
    seq: ObservationSequence, policy: TeacherPolicy, budget: int
) -> OnlineTrace:
    """Replay ``seq`` through ``policy``, spending at most ``budget`` changes."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    _check_policy(policy, seq.k, len(seq), budget)
    counts = [0] * seq.k
    remaining = budget
    corrected: list[int] = []
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
    return OnlineTrace(
        corrected=ObservationSequence(tuple(corrected), seq.k),
        counts=CountVector(tuple(counts), len(seq)),
        budget_spent=budget - remaining,
    )


def replays(
    sequences: Sequence[ObservationSequence],
    model: Categorical,
    reward: TerminalReward,
    budgets: Iterable[int],
) -> Iterator[tuple[int, Iterator[OnlineTrace]]]:
    """Yield ``(budget, traces)`` per budget: one solve for (``model``,
    ``reward``, budget) at the streams' length, replayed on every stream.

    ``traces`` is lazy. Consume a budget's traces before asking for the
    next budget, so that one budget's policy and traces are held at a time.
    """
    if not sequences:
        raise ValueError("no sequences to replay")
    n = len(sequences[0])
    for budget in budgets:
        policy, _ = solve(MdpSpec(k=model.k, n=n, budget=budget, model=model, reward=reward))
        yield budget, map(run_online, sequences, repeat(policy), repeat(budget))


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
    spec = MdpSpec(k=model.k, n=n, budget=budget, model=model,
                   reward=l1_terminal_reward(model))
    mass = {((0,) * model.k, budget): 1.0}
    for _ in range(n):
        ahead: dict[tuple[tuple[int, ...], int], float] = {}
        for (counts, left), weight in mass.items():
            for state, p in arrivals(counts, left, spec):
                pair = apply_action(state, policy.action_for(state))
                ahead[pair] = ahead.get(pair, 0.0) + weight * p
        mass = ahead
    return -math.fsum(
        weight * spec.reward.evaluate(CountVector(counts, n))
        for (counts, _), weight in mass.items()
    )
