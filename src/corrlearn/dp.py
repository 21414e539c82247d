"""Finite-horizon backward induction over the correction process.

Post-decision form: a forward pass collects, per stage, the (counts,
budget) pairs left by every feasible decision; the backward pass values
each pair once, W(counts, budget), as the expectation over the next
observation's arrivals. Only W is kept; actions are derived on demand.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cache

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

# A solve's peak RSS grows by 63-77 bytes per unit of ``state_count_bound``
# (measured at (k, n, budget) = (3, 25, 2), (3, 40, 3), (3, 60, 3) and
# (4, 15, 2) as the process's VmHWM growth over the solve, Python 3.11), so
# a solve at the 5M-unit ceiling peaks near 0.4 GB, well inside 2 GB. With
# ``policy_dump``'s text on top it grows by 196-204 bytes a unit, near 1 GB.
DEFAULT_STATE_CEILING = 5_000_000

_shared_action = cache(Action)  # one instance per target, shared by every decision


@dataclass(frozen=True)
class Policy:
    """W per post-decision pair at every stage, and the optimal expected
    reward before the first draw per start budget. Each action is derived
    from W when it is asked for; ``stages`` is a view that derives them all."""

    spec: MdpSpec  # what ``arrivals`` needs to rebuild a stage's states
    budgets: tuple[int, ...]  # the start budgets it serves
    values: list[dict[tuple[tuple[int, ...], int], float]]  # W_t for t = 0..n
    root_values: dict[int, float]  # W((0,)*k, b) for each b in budgets
    k = property(lambda self: self.spec.k)
    n = property(lambda self: self.spec.n)
    stages = property(lambda self: StageView(self))  # every reachable state's action

    def action_for(self, state: TeacherState) -> Action:
        """The first strictly best of keep, then changes by ascending target,
        by the W each leads to; ``KeyError`` if no start reaches ``state``."""
        counts, budget, seen, stage = state.counts, state.budget, state.last_obs, state.stage
        before = list(counts)  # the pair the state arrived from
        before[seen] -= 1
        if not (1 <= stage <= self.n and self.spec.model.probs[seen] > 0.0
                and (tuple(before), budget) in self.values[stage - 1]):
            raise KeyError(f"state {state} not covered by the policy; it was solved "
                           f"for k={self.k}, n={self.n}, budgets={self.budgets}")
        after, target = self.values[stage], seen
        best = after[counts, budget]
        for u in range(self.k) if budget else ():
            before[u] += 1
            if u != seen and after[tuple(before), budget - 1] > best:
                target, best = u, after[tuple(before), budget - 1]
            before[u] -= 1
        return _shared_action(target)


class StageView(Mapping):
    """A policy's read-only ``{stage: {state: action}}``: reading a stage
    rebuilds its states through ``arrivals`` and derives every action anew."""

    def __init__(self, policy: Policy) -> None:
        self.policy = policy

    def __getitem__(self, stage: int) -> dict[TeacherState, Action]:
        if stage not in range(1, self.policy.n + 1):
            raise KeyError(stage)
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # one tuple per count vector
        return {state: self.policy.action_for(state)
                for counts, budget in self.policy.values[stage - 1]
                for state, _ in arrivals(counts, budget, self.policy.spec, shared)}

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, self.policy.n + 1))

    def __len__(self) -> int:
        return self.policy.n


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
    teacher can produce. The backward pass values pairs only, each arrival
    at the better of keeping it and its best change; ``Policy.action_for``
    derives actions from the same W. The terminal reward is scored once
    per distinct final count vector. Ties break toward keeping, then
    toward the smallest change target; improvements must be strict, which
    makes the tie-breaking exact (equal subtrees yield bit-equal values).

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
    values = [{pair: reward[pair[0]] for pair in finals}]
    outcomes = [(v, p) for v, p in enumerate(spec.model.probs) if p > 0.0]
    for _ in range(spec.n):
        ahead, behind = values[-1], {}
        for counts, budget in pairs.pop():
            up = [counts[:u] + (c + 1,) + counts[u + 1:] for u, c in enumerate(counts)]  # + e_u
            # W of changing an arrival to u: absent only where no other outcome arrives
            changed = [ahead.get((c, budget - 1)) for c in up] if budget else []
            # W is added up left to right in outcome order, not with the
            # builtin ``sum``: that is compensated from Python 3.12, which
            # would make values, and so near-tie decisions, version-dependent.
            total = 0.0
            for v, p in outcomes:
                best = ahead[up[v], budget]
                for u, value in enumerate(changed):
                    if u != v and value > best:
                        best = value
                total += p * best
            behind[counts, budget] = total
        values.append(behind)
    return Policy(spec, budgets, values[::-1], {b: behind[(0,) * spec.k, b] for b in budgets})


def policy_dump(policy: Policy) -> str:
    """Deterministic text form, one ``stage,counts,budget,last_obs,action``
    row per state, sorted by (stage, counts, budget, last_obs)."""
    rows = []
    for stage, actions in policy.stages.items():
        for state in sorted(actions, key=lambda s: (s.counts, s.budget, s.last_obs)):
            action = actions[state]
            label = "keep" if action.target == state.last_obs else f"change->{action.target}"
            counts = "|".join(str(c) for c in state.counts)
            rows.append(f"{stage},{counts},{state.budget},{state.last_obs},{label}")
    return "\n".join(rows) + "\n"
