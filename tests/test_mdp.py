import math
import random

import pytest

from corrlearn.core import Categorical
from corrlearn.mdp import (
    Action,
    BudgetExhaustedError,
    MdpSpec,
    TeacherState,
    apply_action,
    feasible_actions,
    initial_states,
    l1_terminal_reward,
    state_count_bound,
    terminal_value,
    transitions,
)


def spec_for(theta, n, budget):
    return MdpSpec(k=theta.k, n=n, budget=budget, model=theta,
                   reward=l1_terminal_reward(theta))


def reachable_states(spec):
    """Forward closure under all feasible actions, stage by stage."""
    stages = {1: {s for s, _ in initial_states(spec)}}
    for stage in range(1, spec.n):
        nxt = set()
        for state in stages[stage]:
            for action in feasible_actions(state, spec.k):
                for succ, _ in transitions(state, action, spec):
                    nxt.add(succ)
        stages[stage + 1] = nxt
    return stages


class TestStateCountBound:
    def test_single_symbol(self):
        assert state_count_bound(1, 7) == 7

    @pytest.mark.parametrize("k,n,expected", [(2, 2, 5), (3, 2, 9)])
    def test_small_cases_match_enumeration(self, k, n, expected):
        assert state_count_bound(k, n) == expected
        # independent count: vectors with 1 <= sum <= n
        import itertools
        found = sum(
            1
            for cand in itertools.product(range(n + 1), repeat=k)
            if 1 <= sum(cand) <= n
        )
        assert found == expected

    def test_full_bound_multiplies_budget_and_alphabet(self):
        assert state_count_bound(3, 4, budget=2) == state_count_bound(3, 4) * 3 * 3

    def test_large_inputs_stay_exact(self):
        # would overflow fixed-width integers; Python ints must not
        assert state_count_bound(10, 200) == sum(
            math.comb(10 + m - 1, m) for m in range(1, 201)
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            state_count_bound(0, 3)


class TestApplyAction:
    def test_keep_is_identity(self):
        state = TeacherState((1, 0), 1, 0)
        assert apply_action(state, Action(0)) == ((1, 0), 1)

    def test_change_moves_one_count_and_spends(self):
        state = TeacherState((1, 0), 1, 0)
        assert apply_action(state, Action(1)) == ((0, 1), 0)

    def test_change_without_budget_rejected(self):
        state = TeacherState((2, 1), 0, 1)
        with pytest.raises(BudgetExhaustedError, match="budget exhausted"):
            apply_action(state, Action(0))

    def test_target_outside_alphabet_rejected(self):
        with pytest.raises(ValueError):
            apply_action(TeacherState((1, 0), 1, 0), Action(2))


class TestTransitions:
    def test_keep_branches_on_next_observation(self):
        spec = spec_for(Categorical((0.5, 0.5)), 5, 1)
        out = transitions(TeacherState((1, 0), 1, 0), Action(0), spec)
        assert dict(((s.counts, s.budget, s.last_obs), p) for s, p in out) == {
            ((2, 0), 1, 0): 0.5,
            ((1, 1), 1, 1): 0.5,
        }

    def test_change_then_branch(self):
        spec = spec_for(Categorical((0.5, 0.5)), 5, 1)
        out = transitions(TeacherState((1, 0), 1, 0), Action(1), spec)
        assert dict(((s.counts, s.budget, s.last_obs), p) for s, p in out) == {
            ((1, 1), 0, 0): 0.5,
            ((0, 2), 0, 1): 0.5,
        }

    def test_no_transitions_past_horizon(self):
        spec = spec_for(Categorical((0.5, 0.5)), 2, 1)
        with pytest.raises(ValueError, match="horizon"):
            transitions(TeacherState((1, 1), 1, 0), Action(0), spec)

    def test_zero_probability_outcomes_pruned(self):
        spec = spec_for(Categorical((1.0, 0.0)), 3, 1)
        out = transitions(TeacherState((1, 0), 1, 0), Action(0), spec)
        assert [(s.counts, p) for s, p in out] == [((2, 0), 1.0)]

    def test_probabilities_sum_to_one_everywhere(self):
        # exhaustive over reachable states for small processes
        for theta in (Categorical((0.5, 0.5)), Categorical((0.4, 0.3, 0.3))):
            for n in (2, 3, 5):
                for budget in (0, 1, 2):
                    spec = spec_for(theta, n, budget)
                    stages = reachable_states(spec)
                    for stage in range(1, n):
                        for state in stages[stage]:
                            for action in feasible_actions(state, spec.k):
                                total = math.fsum(
                                    p for _, p in transitions(state, action, spec)
                                )
                                assert abs(total - 1.0) < 1e-12

    def test_stage_advances_by_one_observation(self):
        spec = spec_for(Categorical((0.4, 0.3, 0.3)), 4, 1)
        stages = reachable_states(spec)
        for stage in range(1, spec.n):
            for state in stages[stage]:
                assert state.stage == stage
                for action in feasible_actions(state, spec.k):
                    counts, _ = apply_action(state, action)
                    assert sum(counts) == stage  # the action moves, never adds
                    for succ, _ in transitions(state, action, spec):
                        assert succ.stage == stage + 1

    def test_reachable_states_within_bound(self):
        for budget in (0, 1, 2):
            spec = spec_for(Categorical((0.4, 0.3, 0.3)), 5, budget)
            stages = reachable_states(spec)
            total = sum(len(s) for s in stages.values())
            assert total <= state_count_bound(3, 5, budget=budget)


class TestTerminalValue:
    def test_keep_scores_final_counts(self):
        theta = Categorical((0.4, 0.3, 0.3))
        spec = spec_for(theta, 5, 1)
        value = terminal_value(TeacherState((2, 2, 1), 1, 0), Action(0), spec)
        assert value == pytest.approx(-0.2, abs=1e-12)

    def test_exact_match_scores_zero(self):
        theta = Categorical((0.6, 0.4))
        spec = spec_for(theta, 5, 1)
        assert terminal_value(TeacherState((3, 2), 0, 0), Action(0), spec) == 0.0

    def test_final_change_is_allowed_and_scored(self):
        # moving the last observation: final counts (4, 1), estimate
        # (0.8, 0.2), l1 error vs (0.5, 0.5) = 0.6
        theta = Categorical((0.5, 0.5))
        spec = spec_for(theta, 5, 1)
        value = terminal_value(TeacherState((5, 0), 1, 0), Action(1), spec)
        assert value == pytest.approx(-0.6, abs=1e-12)

    def test_rejected_on_nonterminal(self):
        spec = spec_for(Categorical((0.5, 0.5)), 5, 1)
        with pytest.raises(ValueError):
            terminal_value(TeacherState((1, 1), 1, 0), Action(0), spec)


class TestTrajectories:
    def test_budget_never_overspent_under_random_policies(self):
        rng = random.Random(77)
        theta = Categorical((0.4, 0.3, 0.3))
        for _ in range(200):
            budget = rng.randint(0, 3)
            spec = spec_for(theta, 6, budget)
            state = None
            spent = 0
            for step in range(spec.n):
                if state is None:
                    y = rng.choices(range(3), weights=theta.probs)[0]
                    counts = tuple(1 if i == y else 0 for i in range(3))
                    state = TeacherState(counts, budget, y)
                    continue
                action = rng.choice(feasible_actions(state, spec.k))
                if action.target != state.last_obs:
                    spent += 1
                succs = transitions(state, action, spec)
                state = rng.choices(
                    [s for s, _ in succs], weights=[p for _, p in succs]
                )[0]
            assert spent <= budget
            assert state.budget == budget - spent


class TestStateValidation:
    def test_current_observation_must_be_tallied(self):
        with pytest.raises(ValueError):
            TeacherState((0, 1), 1, 0)

    def test_model_dimension_checked(self):
        with pytest.raises(ValueError):
            MdpSpec(k=3, n=2, budget=0, model=Categorical((0.5, 0.5)),
                    reward=l1_terminal_reward(Categorical((0.5, 0.5))))
