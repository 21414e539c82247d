"""Finite-horizon backward induction over the correction process.

Post-decision form: a forward pass collects, per stage, the (counts,
budget) pairs left by every feasible decision; the backward pass values
each pair once, W(counts, budget), as the expectation over the next
observation's arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import CeilingExceededError, CountVector
from .mdp import (
    Action,
    MdpSpec,
    TeacherState,
    apply_action,
    arrivals,
    feasible_actions,
    state_count_bound,
)

# A solve's peak RSS grows by 268-300 bytes per unit of ``state_count_bound``
# (measured at (k, n, budget) = (3, 25, 2), (3, 40, 3), (3, 60, 3) and
# (4, 15, 2) as the process's VmHWM growth over the solve, Python 3.11), so
# 5M units at up to ~400 bytes each keeps a solve at the ceiling near 2 GB.
DEFAULT_STATE_CEILING = 5_000_000


@dataclass(frozen=True)
class Policy:
    """Per-stage maps from reachable state to the chosen action, and the
    optimal expected reward before the first draw per start budget."""

    k: int
    n: int
    budgets: tuple[int, ...]  # the start budgets it serves
    stages: dict[int, dict[TeacherState, Action]]
    root_values: dict[int, float]  # W((0,)*k, b) for each b in budgets

    def action_for(self, state: TeacherState) -> Action:
        try:
            return self.stages[state.stage][state]
        except KeyError:
            raise KeyError(
                f"state {state} not covered by the policy; it was solved for "
                f"k={self.k}, n={self.n}, budgets={self.budgets}"
            ) from None


def check_state_bound(k: int, n: int, budget: int) -> int:
    """``state_count_bound(k, n, budget)``, the size of a solve up to
    ``budget``; ``CeilingExceededError`` above ``DEFAULT_STATE_CEILING``."""
    bound = state_count_bound(k, n, budget)
    if bound > DEFAULT_STATE_CEILING:
        raise CeilingExceededError(
            f"state bound {bound} exceeds the ceiling {DEFAULT_STATE_CEILING} "
            f"for k={k}, n={n}, budget={budget}"
        )
    return bound


def solve(spec: MdpSpec, budgets: Iterable[int]) -> Policy:
    """Exact optimal policy and root values by backward induction.

    Reachability is taken under all feasible actions, not just optimal
    ones, so the returned policy covers any replay a budget-respecting
    teacher can produce. Each state takes its best action by the W of the
    pair it leads to, and the terminal reward is scored once per distinct
    final count vector. Ties break toward keeping, then toward the
    smallest change target; improvements must be strict, which makes the
    tie-breaking exact (equal subtrees yield bit-equal values).

    The forward pass starts from every one of ``budgets``. W(counts,
    budget) does not depend on the start, and each pair is valued from the
    same successors in the same order, so actions and root values match a
    one-start solve bit for bit. The root value of budget b is the W of
    ((0,)*k, b), which the backward pass leaves after stage 1.
    """
    budgets = tuple(sorted(set(budgets)))
    if not budgets:
        raise ValueError("no start budgets to solve for")
    if budgets[0] < 0:
        raise ValueError("budget must be nonnegative")
    check_state_bound(spec.k, spec.n, budgets[-1])

    # pairs[t]: post-decision (counts, budget) after the decision at stage t
    pairs: list[set[tuple[tuple[int, ...], int]]] = [{((0,) * spec.k, b) for b in budgets}]
    for _ in range(spec.n):
        pairs.append({
            apply_action(state, action)
            for counts, budget in pairs[-1]
            for state, _ in arrivals(counts, budget, spec)
            for action in feasible_actions(state, spec.k)
        })

    finals = pairs.pop()
    reward = {
        counts: spec.reward.evaluate(CountVector(counts))
        for counts in {counts for counts, _ in finals}
    }
    ahead = {pair: reward[pair[0]] for pair in finals}
    actions: dict[int, dict[TeacherState, Action]] = {}
    for stage in range(spec.n, 0, -1):
        stage_actions: dict[TeacherState, Action] = {}
        behind: dict[tuple[tuple[int, ...], int], float] = {}
        for counts, budget in pairs.pop():
            # W is added up left to right in outcome order, not with the
            # builtin ``sum``: that is compensated from Python 3.12, which
            # would make values, and so near-tie decisions, version-dependent.
            total = 0.0
            for state, p in arrivals(counts, budget, spec):
                best = float("-inf")
                best_action: Action | None = None
                for action in feasible_actions(state, spec.k):
                    value = ahead[apply_action(state, action)]
                    if value > best:
                        best = value
                        best_action = action
                assert best_action is not None
                stage_actions[state] = best_action
                total += p * best
            behind[(counts, budget)] = total
        actions[stage] = stage_actions
        ahead = behind

    return Policy(spec.k, spec.n, budgets, actions,
                  {b: ahead[(0,) * spec.k, b] for b in budgets})


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
