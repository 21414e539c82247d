import itertools
import math
import random

import pytest

from corrlearn.core import Categorical
from corrlearn.dp import (
    CeilingExceededError,
    brute_force_value,
    policy_dump,
    root_value,
    solve,
    value_at,
)
from corrlearn.mdp import (
    MdpSpec,
    TeacherState,
    TerminalReward,
    apply_action,
    feasible_actions,
    l1_terminal_reward,
    terminal_value,
    transitions,
)
from test_mdp import reachable_states


def spec_for(theta, n, budget):
    return MdpSpec(k=theta.k, n=n, budget=budget, model=theta,
                   reward=l1_terminal_reward(theta))


def passive_expected_error(theta, state, n):
    """Direct expectation of the final l1 error when nothing is ever
    changed, conditioned on `state`. Independent of the solver."""
    k = theta.k
    remaining = n - sum(state.counts)
    total = 0.0
    for tail in itertools.product(range(k), repeat=remaining):
        prob = 1.0
        for v in tail:
            prob *= theta.probs[v]
        counts = list(state.counts)
        for v in tail:
            counts[v] += 1
        err = math.fsum(abs(c / n - p) for c, p in zip(counts, theta.probs))
        total += prob * err
    return total


class TestSolveSmallCases:
    def test_single_observation_error_is_total(self):
        # one draw puts all mass on one value; l1 error 1 either way, and
        # a budget cannot split a single observation
        theta = Categorical((0.5, 0.5))
        for budget in (0, 1):
            spec = spec_for(theta, 1, budget)
            _, table = solve(spec)
            assert root_value(table, spec) == pytest.approx(-1.0, abs=1e-12)

    def test_two_draws_no_budget(self):
        # sequences 00 and 11 leave error 1, the mixed ones error 0
        spec = spec_for(Categorical((0.5, 0.5)), 2, 0)
        _, table = solve(spec)
        assert root_value(table, spec) == pytest.approx(-0.5, abs=1e-12)

    def test_two_draws_one_correction_fixes_everything(self):
        spec = spec_for(Categorical((0.5, 0.5)), 2, 1)
        _, table = solve(spec)
        assert root_value(table, spec) == pytest.approx(0.0, abs=1e-12)


class TestBruteForce:
    def test_two_draws(self):
        theta = Categorical((0.5, 0.5))
        assert brute_force_value(spec_for(theta, 2, 1)) == pytest.approx(0.0, abs=1e-12)
        assert brute_force_value(spec_for(theta, 2, 0)) == pytest.approx(-0.5, abs=1e-12)

    def test_passive_case_equals_direct_expectation(self):
        theta = Categorical.uniform(3)
        spec = spec_for(theta, 3, 0)
        direct = -sum(
            p * passive_expected_error(theta, s, 3)
            for s, p in (
                (TeacherState(tuple(1 if i == y else 0 for i in range(3)), 0, y),
                 theta.probs[y])
                for y in range(3)
            )
        )
        assert brute_force_value(spec) == pytest.approx(direct, abs=1e-12)

    def test_ceiling_rejected(self):
        spec = spec_for(Categorical((0.5, 0.5)), 12, 1)
        with pytest.raises(CeilingExceededError):
            brute_force_value(spec, ceiling=1000)


class TestOracleEquivalence:
    @pytest.mark.parametrize("budget", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_solver_matches_brute_force(self, n, budget):
        for theta in (
            Categorical((0.5, 0.5)),
            Categorical((0.7, 0.3)),
            Categorical((0.4, 0.3, 0.3)),
            Categorical((1.0, 0.0)),
            Categorical((0.6, 0.4, 0.0)),
        ):
            spec = spec_for(theta, n, budget)
            _, table = solve(spec)
            assert root_value(table, spec) == pytest.approx(
                brute_force_value(spec), abs=1e-12
            )

    def test_root_value_monotone_in_budget(self):
        for theta in (Categorical((0.7, 0.3)), Categorical((0.4, 0.3, 0.3))):
            for n in (1, 2, 3, 4, 5):
                roots = []
                for budget in (0, 1, 2):
                    spec = spec_for(theta, n, budget)
                    _, table = solve(spec)
                    roots.append(root_value(table, spec))
                assert roots[0] <= roots[1] + 1e-12
                assert roots[1] <= roots[2] + 1e-12


class TestPolicyAndTable:
    def test_policy_never_spends_at_zero_budget(self):
        spec = spec_for(Categorical((0.4, 0.3, 0.3)), 5, 2)
        policy, _ = solve(spec)
        for stage_actions in policy.stages.values():
            for state, action in stage_actions.items():
                if state.budget == 0:
                    assert action.target == state.last_obs

    def test_values_bounded_for_l1_reward(self):
        spec = spec_for(Categorical((0.4, 0.3, 0.3)), 5, 1)
        _, table = solve(spec)
        for stage_values in table.stages.values():
            for value in stage_values.values():
                assert -2.0 <= value <= 0.0

    def test_bellman_consistency_spot_check(self):
        spec = spec_for(Categorical((0.4, 0.3, 0.3)), 6, 2)
        policy, table = solve(spec)
        rng = random.Random(55)
        states = [
            (stage, state)
            for stage in range(1, spec.n)
            for state in table.stages[stage]
        ]
        for stage, state in rng.sample(states, min(1000, len(states))):
            action = policy.stages[stage][state]
            backup = math.fsum(
                p * table.stages[stage + 1][succ]
                for succ, p in transitions(state, action, spec)
            )
            assert value_at(table, state) == pytest.approx(backup, abs=1e-12)

    def test_terminal_stage_values_are_best_final_rewards(self):
        spec = spec_for(Categorical((0.5, 0.5)), 4, 1)
        policy, table = solve(spec)
        for state, value in table.stages[spec.n].items():
            best = max(
                terminal_value(state, action, spec)
                for action in feasible_actions(state, spec.k)
            )
            assert value == pytest.approx(best, abs=1e-12)

    def test_zero_budget_states_match_passive_expectation(self):
        theta = Categorical((0.4, 0.3, 0.3))
        spec = spec_for(theta, 4, 1)
        _, table = solve(spec)
        for stage in range(1, spec.n + 1):
            for state in table.stages[stage]:
                if state.budget == 0:
                    expected = -passive_expected_error(theta, state, spec.n)
                    assert value_at(table, state) == pytest.approx(expected, abs=1e-12)

    def test_value_at_unknown_state_rejected(self):
        spec = spec_for(Categorical((0.5, 0.5)), 3, 0)
        _, table = solve(spec)
        with pytest.raises(KeyError):
            value_at(table, TeacherState((1, 1, 1), 0, 0))

    def test_initial_state_values_match_conditioned_recursion(self):
        # expectimax restarted from each first observation, written out
        # here independently of the solver
        theta = Categorical((0.7, 0.3))
        n, budget = 3, 1
        spec = spec_for(theta, n, budget)
        _, table = solve(spec)

        def best(counts, b, y, k):
            outcomes = []
            for t in range(theta.k):
                if t != y and b < 1:
                    continue
                c2 = list(counts)
                b2 = b
                if t != y:
                    c2[y] -= 1
                    c2[t] += 1
                    b2 -= 1
                if k == n:
                    outcomes.append(
                        -math.fsum(abs(c / n - p) for c, p in zip(c2, theta.probs))
                    )
                else:
                    outcomes.append(sum(
                        theta.probs[v] * best(
                            tuple(c + (1 if i == v else 0) for i, c in enumerate(c2)),
                            b2, v, k + 1,
                        )
                        for v in range(theta.k)
                    ))
            return max(outcomes)

        for y in range(2):
            counts = tuple(1 if i == y else 0 for i in range(2))
            state = TeacherState(counts, budget, y)
            assert value_at(table, state) == pytest.approx(
                best(counts, budget, y, 1), abs=1e-12
            )

    def test_policy_covers_all_reachable_states(self):
        spec = spec_for(Categorical((0.4, 0.3, 0.3)), 5, 1)
        policy, table = solve(spec)
        for stage in range(1, spec.n + 1):
            assert set(policy.stages[stage]) == set(table.stages[stage])

    @pytest.mark.parametrize("probs", [(1.0, 0.0), (0.6, 0.4, 0.0), (0.5, 0.5, 0.0)])
    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_zero_probability_policy_covers_exactly_the_reachable_states(
        self, probs, budget
    ):
        spec = spec_for(Categorical(probs), 5, budget)
        policy, _ = solve(spec)
        reachable = reachable_states(spec)
        assert sorted(policy.stages) == sorted(reachable)
        for stage, states in reachable.items():
            assert set(policy.stages[stage]) == states

    def test_terminal_reward_evaluated_once_per_final_vector(self):
        theta = Categorical((0.4, 0.3, 0.3))
        base = l1_terminal_reward(theta)
        calls = []

        def counted(counts):
            calls.append(counts.counts)
            return base.evaluate(counts)

        spec = MdpSpec(k=3, n=6, budget=2, model=theta,
                       reward=TerminalReward(counted))
        _, table = solve(spec)
        finals = {
            apply_action(state, action)[0]
            for state in table.stages[spec.n]
            for action in feasible_actions(state, spec.k)
        }
        assert len(calls) == len(set(calls))
        assert set(calls) == finals

    def test_solve_ceiling_names_the_bound(self):
        spec = spec_for(Categorical((0.5, 0.5)), 10, 1)
        with pytest.raises(CeilingExceededError, match="state bound"):
            solve(spec, ceiling=10)


class TestPolicyDump:
    def test_deterministic_and_sorted(self):
        spec = spec_for(Categorical((0.5, 0.5)), 3, 1)
        policy, _ = solve(spec)
        text = policy_dump(policy)
        assert text == policy_dump(policy)
        lines = text.strip().split("\n")
        assert all(line.count(",") == 4 for line in lines)
        stages = [int(line.split(",")[0]) for line in lines]
        assert stages == sorted(stages)
        assert text.endswith("\n")

    def test_golden_first_stage(self):
        spec = spec_for(Categorical((0.5, 0.5)), 2, 1)
        policy, _ = solve(spec)
        lines = policy_dump(policy).strip().split("\n")
        stage1 = [line for line in lines if line.startswith("1,")]
        assert stage1 == ["1,0|1,1,1,keep", "1,1|0,1,0,keep"]
