"""Finite-horizon backward induction over the correction process.

Post-decision form: a forward pass collects, per stage, the (counts,
budget) pairs left by every feasible decision; the backward pass values
each pair once, W(counts, budget), as the expectation over the next
observation's arrivals. ``brute_force_value`` is the independent check:
an unmemoised expectimax recursion over every observation outcome and
every feasible action.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CountVector
from .mdp import (
    Action,
    MdpSpec,
    TeacherState,
    apply_action,
    arrivals,
    feasible_actions,
    initial_states,
    state_count_bound,
    terminal_value,
    transitions,
)

DEFAULT_STATE_CEILING = 50_000_000
DEFAULT_BRUTE_CEILING = 100_000_000


class CeilingExceededError(RuntimeError):
    """The configured state-space or recursion ceiling would be exceeded."""


@dataclass(frozen=True)
class Policy:
    """Per-stage map from reachable state to the chosen action."""

    k: int
    n: int
    budget: int
    stages: dict[int, dict[TeacherState, Action]]

    def action_for(self, state: TeacherState) -> Action:
        try:
            return self.stages[state.stage][state]
        except KeyError:
            raise KeyError(
                f"state {state} not covered by the policy; it was solved for "
                f"k={self.k}, n={self.n}, budget={self.budget}"
            ) from None


@dataclass(frozen=True)
class ValueTable:
    """Per-stage map from reachable state to optimal expected reward."""

    k: int
    n: int
    budget: int
    stages: dict[int, dict[TeacherState, float]]


def value_at(table: ValueTable, state: TeacherState) -> float:
    try:
        return table.stages[state.stage][state]
    except KeyError:
        raise KeyError(f"state {state} not present in the value table") from None


def root_value(table: ValueTable, spec: MdpSpec) -> float:
    """Optimal expected reward before the first observation arrives."""
    return sum(p * value_at(table, s) for s, p in initial_states(spec))


def solve(
    spec: MdpSpec, ceiling: int = DEFAULT_STATE_CEILING
) -> tuple[Policy, ValueTable]:
    """Exact optimal policy and value function by backward induction.

    Reachability is taken under all feasible actions, not just optimal
    ones, so the returned policy covers any replay a budget-respecting
    teacher can produce. Each state takes its best action by the W of the
    pair it leads to, and the terminal reward is scored once per distinct
    final count vector. Ties break toward keeping, then toward the
    smallest change target; improvements must be strict, which makes the
    tie-breaking exact (equal subtrees yield bit-equal values).
    """
    bound = state_count_bound(spec.k, spec.n, spec.budget)
    if bound > ceiling:
        raise CeilingExceededError(
            f"state bound {bound} exceeds the ceiling {ceiling} "
            f"for k={spec.k}, n={spec.n}, budget={spec.budget}"
        )

    # pairs[t]: post-decision (counts, budget) after the decision at stage t
    pairs: list[set[tuple[tuple[int, ...], int]]] = [{((0,) * spec.k, spec.budget)}]
    for _ in range(spec.n):
        pairs.append({
            apply_action(state, action)
            for counts, budget in pairs[-1]
            for state, _ in arrivals(counts, budget, spec)
            for action in feasible_actions(state, spec.k)
        })

    finals = pairs.pop()
    reward = {
        counts: spec.reward.evaluate(CountVector(counts, spec.n))
        for counts in {counts for counts, _ in finals}
    }
    ahead = {pair: reward[pair[0]] for pair in finals}
    values: dict[int, dict[TeacherState, float]] = {}
    actions: dict[int, dict[TeacherState, Action]] = {}
    for stage in range(spec.n, 0, -1):
        stage_values: dict[TeacherState, float] = {}
        stage_actions: dict[TeacherState, Action] = {}
        behind: dict[tuple[tuple[int, ...], int], float] = {}
        for counts, budget in pairs.pop():
            arrived = arrivals(counts, budget, spec)
            for state, _ in arrived:
                best = float("-inf")
                best_action: Action | None = None
                for action in feasible_actions(state, spec.k):
                    value = ahead[apply_action(state, action)]
                    if value > best:
                        best = value
                        best_action = action
                assert best_action is not None
                stage_values[state] = best
                stage_actions[state] = best_action
            behind[(counts, budget)] = sum(p * stage_values[s] for s, p in arrived)
        values[stage] = stage_values
        actions[stage] = stage_actions
        ahead = behind

    return (
        Policy(spec.k, spec.n, spec.budget, actions),
        ValueTable(spec.k, spec.n, spec.budget, values),
    )


def brute_force_value(spec: MdpSpec, ceiling: int = DEFAULT_BRUTE_CEILING) -> float:
    """Optimal expected reward by raw recursion, for cross-checking ``solve``.

    No memoisation on purpose: the recursion shares nothing with the
    backward-induction code path beyond the transition rules themselves.
    """
    paths = (spec.k ** spec.n) * ((spec.k + 1) ** spec.n)
    if paths > ceiling:
        raise CeilingExceededError(
            f"recursion size {paths} exceeds the ceiling {ceiling}"
        )

    def best(state: TeacherState) -> float:
        out = float("-inf")
        for action in feasible_actions(state, spec.k):
            if state.stage == spec.n:
                value = terminal_value(state, action, spec)
            else:
                value = sum(p * best(s) for s, p in transitions(state, action, spec))
            out = max(out, value)
        return out

    return sum(p * best(s) for s, p in initial_states(spec))


def policy_dump(policy: Policy) -> str:
    """Deterministic text form, one ``stage,counts,budget,last_obs,action``
    row per state, sorted by (stage, counts, budget, last_obs)."""
    rows = []
    for stage in sorted(policy.stages):
        for state in sorted(
            policy.stages[stage], key=lambda s: (s.counts, s.budget, s.last_obs)
        ):
            action = policy.stages[stage][state]
            label = "keep" if action.target == state.last_obs else f"change->{action.target}"
            counts = "|".join(str(c) for c in state.counts)
            rows.append(f"{stage},{counts},{state.budget},{state.last_obs},{label}")
    return "\n".join(rows) + "\n"
