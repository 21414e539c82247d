import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlearn.core import Categorical, CountVector
from corrlearn import dp
from corrlearn.dp import CeilingExceededError, policy_dump, solve
from corrlearn.mdp import (
    MdpSpec,
    TeacherState,
    TerminalReward,
    apply_action,
    arrivals,
    feasible_actions,
    l1_terminal_reward,
)
from corrlearn.likelihood import bio_terminal_reward, default_candidates
from oracles import brute_force_value, traced_memory
from test_mdp import assert_valid_state, reachable_states


def spec_for(theta, n):
    return MdpSpec(n=n, model=theta, reward=l1_terminal_reward(theta))


def counted_derivations(monkeypatch):
    """The states ``Policy.action_for`` derives an action for from now on,
    in the order asked."""
    derived = []
    action_for = dp.Policy.action_for

    def counted(policy, state):
        derived.append(state)
        return action_for(policy, state)

    monkeypatch.setattr(dp.Policy, "action_for", counted)
    return derived


def passive_expected_error(theta, counts, n):
    """Direct expectation of the final l1 error when nothing is ever
    changed, from the tallies `counts`. Independent of the solver."""
    k = theta.k
    remaining = n - sum(counts)
    total = 0.0
    for tail in itertools.product(range(k), repeat=remaining):
        prob = 1.0
        for v in tail:
            prob *= theta.probs[v]
        final = list(counts)
        for v in tail:
            final[v] += 1
        err = math.fsum(abs(c / n - p) for c, p in zip(final, theta.probs))
        total += prob * err
    return total


class TestSolveSmallCases:
    def test_single_observation_error_is_total(self):
        # one draw puts all mass on one value; l1 error 1 either way, and
        # a budget cannot split a single observation
        theta = Categorical((0.5, 0.5))
        spec = spec_for(theta, 1)
        for budget in (0, 1):
            policy = solve(spec, (budget,))
            assert policy.root_values[budget] == pytest.approx(-1.0, abs=1e-12)

    def test_two_draws_no_budget(self):
        # sequences 00 and 11 leave error 1, the mixed ones error 0
        spec = spec_for(Categorical((0.5, 0.5)), 2)
        assert solve(spec, (0,)).root_values[0] == pytest.approx(-0.5, abs=1e-12)

    def test_two_draws_one_correction_fixes_everything(self):
        spec = spec_for(Categorical((0.5, 0.5)), 2)
        assert solve(spec, (1,)).root_values[1] == pytest.approx(0.0, abs=1e-12)


class TestBruteForce:
    def test_two_draws(self):
        theta = Categorical((0.5, 0.5))
        assert brute_force_value(spec_for(theta, 2), 1) == pytest.approx(0.0, abs=1e-12)
        assert brute_force_value(spec_for(theta, 2), 0) == pytest.approx(-0.5, abs=1e-12)

    def test_passive_case_equals_direct_expectation(self):
        theta = Categorical((1 / 3,) * 3)
        spec = spec_for(theta, 3)
        direct = -passive_expected_error(theta, (0,) * 3, 3)
        assert brute_force_value(spec, 0) == pytest.approx(direct, abs=1e-12)

    def test_ceiling_rejected(self):
        spec = spec_for(Categorical((0.5, 0.5)), 12)
        with pytest.raises(CeilingExceededError):
            brute_force_value(spec, 1, ceiling=1000)


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
            spec = spec_for(theta, n)
            assert solve(spec, (budget,)).root_values[budget] == pytest.approx(
                brute_force_value(spec, budget), abs=1e-12
            )

    def test_root_value_monotone_in_budget(self):
        for theta in (Categorical((0.7, 0.3)), Categorical((0.4, 0.3, 0.3))):
            for n in (1, 2, 3, 4, 5):
                spec = spec_for(theta, n)
                roots = [solve(spec, (b,)).root_values[b] for b in (0, 1, 2)]
                assert roots[0] <= roots[1] + 1e-12
                assert roots[1] <= roots[2] + 1e-12


class TestPolicyAndTable:
    def test_policy_never_spends_at_zero_budget(self):
        policy = solve(spec_for(Categorical((0.4, 0.3, 0.3)), 5), (2,))
        for stage_actions in policy.stages.values():
            for state, action in stage_actions.items():
                if state.budget == 0:
                    assert action.target == state.last_obs

    def test_values_bounded_for_l1_reward(self):
        policy = solve(spec_for(Categorical((0.4, 0.3, 0.3)), 5), (0, 1, 2))
        for value in policy.root_values.values():
            assert -2.0 <= value <= 0.0

    def test_terminal_stage_values_are_best_final_rewards(self):
        # each last decision reaches a final count vector of best reward
        spec = spec_for(Categorical((0.5, 0.5)), 4)
        policy = solve(spec, (1,))

        def final_reward(state, action):
            return spec.reward.evaluate(CountVector(apply_action(state, action)[0]))

        for state, action in policy.stages[spec.n].items():
            assert final_reward(state, action) == max(
                final_reward(state, a) for a in feasible_actions(state, spec.k))

    def test_zero_budget_states_match_passive_expectation(self):
        theta = Categorical((0.4, 0.3, 0.3))
        spec = spec_for(theta, 4)
        policy = solve(spec, (0, 1))
        assert policy.root_values[0] == pytest.approx(
            -passive_expected_error(theta, (0,) * 3, spec.n), abs=1e-12)

    def test_initial_state_values_match_conditioned_recursion(self):
        # expectimax restarted from each first observation, written out
        # here independently of the solver
        theta = Categorical((0.7, 0.3))
        n, budget = 3, 1
        policy = solve(spec_for(theta, n), (budget,))

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

        root = sum(theta.probs[y] * best(tuple(int(i == y) for i in range(2)), budget, y, 1)
                   for y in range(2))
        assert policy.root_values[budget] == pytest.approx(root, abs=1e-12)

    def test_policy_covers_all_reachable_states(self):
        spec = spec_for(Categorical((0.4, 0.3, 0.3)), 5)
        policy = solve(spec, (1,))
        assert {stage: set(actions) for stage, actions in policy.stages.items()} == (
            reachable_states(spec, 1))

    @pytest.mark.parametrize("probs", [(1.0, 0.0), (0.6, 0.4, 0.0), (0.5, 0.5, 0.0)])
    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_zero_probability_policy_covers_exactly_the_reachable_states(
        self, probs, budget
    ):
        spec = spec_for(Categorical(probs), 5)
        policy = solve(spec, (budget,))
        reachable = reachable_states(spec, budget)
        assert sorted(policy.stages) == sorted(reachable)
        for stage, states in reachable.items():
            assert set(policy.stages[stage]) == states
            for state in policy.stages[stage]:
                assert_valid_state(state, stage, spec.k, budget)

    def test_terminal_reward_evaluated_once_per_final_vector(self):
        theta = Categorical((0.4, 0.3, 0.3))
        base = l1_terminal_reward(theta)
        calls = []

        def counted(counts):
            calls.append(counts.counts)
            return base.evaluate(counts)

        spec = MdpSpec(n=6, model=theta, reward=TerminalReward(counted))
        policy = solve(spec, (2,))
        finals = {
            apply_action(state, action)[0]
            for state in policy.stages[spec.n]
            for action in feasible_actions(state, spec.k)
        }
        assert len(calls) == len(set(calls))
        assert set(calls) == finals

    def test_policy_memory_holds_no_per_state_values(self):
        # the (4, 15, 2) policy retained 11.5 MiB while it kept a value per
        # state beside each action, 10.0 MiB with the actions alone, and
        # 5.1 MiB once states and actions carry no __dict__ and the states
        # of a stage share one counts tuple per count vector, 3.7 MiB once
        # every state's decision is one of k shared Action instances, and
        # 2.3 MiB once it keeps W per post-decision pair and no state at all
        theta = Categorical((0.4, 0.3, 0.2, 0.1))
        retained, _ = traced_memory(lambda: solve(spec_for(theta, 15), (2,)),
                                    lambda: solve(spec_for(theta, 2), (1,)))
        assert retained <= 2.75 * 2**20

    @pytest.mark.parametrize("budget", [0, 1, 2])
    @pytest.mark.parametrize("probs", [(0.4, 0.3, 0.3), (0.5, 0.5, 0.0)])
    def test_action_for_covers_exactly_the_reachable_states(self, probs, budget):
        # every count vector up to one past the horizon, every budget up to
        # one past the start and every observation: covered iff reachable
        spec = spec_for(Categorical(probs), 5)
        policy = solve(spec, (budget,))
        reachable = set().union(*reachable_states(spec, budget).values())
        covered = set()
        for counts in itertools.product(range(spec.n + 2), repeat=spec.k):
            if sum(counts) > spec.n + 1:
                continue
            for left, seen in itertools.product(range(budget + 2), range(spec.k)):
                state = TeacherState(counts, left, seen)
                try:
                    policy.action_for(state)
                except KeyError as err:
                    assert "not covered by the policy" in str(err)
                else:
                    covered.add(state)
        assert covered == reachable

    def test_solve_derives_no_action_and_the_dump_each_once(self, monkeypatch):
        derived = counted_derivations(monkeypatch)
        policy = solve(spec_for(Categorical((0.4, 0.3, 0.3)), 25), (2,))
        assert derived == []
        text = policy_dump(policy)
        assert len(derived) == len(set(derived)) == text.count("\n") == 26_310

    def test_states_of_a_stage_share_one_counts_tuple_per_vector(self):
        policy = solve(spec_for(Categorical((0.4, 0.3, 0.3)), 25), (2,))
        chosen = [(state, action) for stage in policy.stages.values()
                  for state, action in stage.items()]
        assert len(chosen) == 26_310
        # every count vector with 1 <= sum <= 25, C(28, 3) - 1, held once
        assert len({state.counts for state, _ in chosen}) == 3_275
        assert len({id(state.counts) for state, _ in chosen}) == 3_275
        # and every decision is one of the k shared Action instances
        assert len({id(action) for _, action in chosen}) <= 3
        assert not any(hasattr(state, "__dict__") or hasattr(action, "__dict__")
                       for state, action in chosen)

    def test_solve_ceiling_names_the_bound(self, monkeypatch):
        # k=3, budget 1: n=169 is the first horizon whose state bound passes
        # the ceiling, and the check fires before a single state is built
        spec = spec_for(Categorical((0.4, 0.3, 0.3)), 169)
        monkeypatch.setattr(dp, "arrivals", lambda *args: pytest.fail("a state was built"))
        with pytest.raises(CeilingExceededError,
                           match=r"state bound \d+ exceeds the ceiling 5000000 for k=3, n=169"):
            solve(spec, (1,))


def bio_spec(n):
    candidates = default_candidates()
    return MdpSpec(n=n, model=candidates.by_label(4).action_dist,
                   reward=bio_terminal_reward(4, candidates))


class TestSharedSolve:
    """One solve seeded with several start budgets against one solve per
    budget: same actions on every state, and every budget's root value
    bit-equal to its own solve's."""

    @pytest.mark.parametrize("spec", [
        spec_for(Categorical((0.4, 0.3, 0.3)), 6),
        spec_for(Categorical((0.5, 0.5, 0.0)), 6),
        bio_spec(5),
    ], ids=["three-value", "zero-probability", "bio"])
    def test_matches_a_solve_per_budget(self, spec):
        budgets = (0, 1, 2, 3)
        shared = solve(spec, (3, 1, 0, 2, 1))
        assert shared.budgets == budgets
        covered: dict[int, set] = {}
        for budget in budgets:
            policy = solve(spec, (budget,))
            for stage, actions in policy.stages.items():
                covered.setdefault(stage, set()).update(actions)
                for state, action in actions.items():
                    assert shared.action_for(state) == action
            assert shared.root_values[budget] == policy.root_values[budget]
        assert {stage: set(states) for stage, states in shared.stages.items()} == covered

    @settings(max_examples=25, deadline=None)
    @given(
        probs=st.sampled_from([(0.5, 0.5), (0.7, 0.3), (0.4, 0.3, 0.3), (0.6, 0.4, 0.0)]),
        n=st.integers(1, 7),
        top=st.integers(0, 4),
    )
    def test_root_value_never_falls_as_the_start_budget_grows(self, probs, n, top):
        spec = spec_for(Categorical(probs), n)
        policy = solve(spec, range(top + 1))
        roots = [policy.root_values[b] for b in range(top + 1)]
        assert roots == sorted(roots)

    def test_no_budgets_rejected(self):
        with pytest.raises(ValueError, match="no start budgets"):
            solve(spec_for(Categorical((0.5, 0.5)), 3), ())

    @pytest.mark.parametrize("budgets", [(-1,), (0, 2, -1)])
    def test_negative_budget_rejected(self, budgets):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            solve(spec_for(Categorical((0.5, 0.5)), 3), budgets)


class TestPolicyDump:
    def test_deterministic_and_sorted(self):
        policy = solve(spec_for(Categorical((0.5, 0.5)), 3), (1,))
        text = policy_dump(policy)
        assert text == policy_dump(policy)
        lines = text.strip().split("\n")
        assert all(line.count(",") == 4 for line in lines)
        stages = [int(line.split(",")[0]) for line in lines]
        assert stages == sorted(stages)
        assert text.endswith("\n")

    def test_golden_first_stage(self):
        policy = solve(spec_for(Categorical((0.5, 0.5)), 2), (1,))
        lines = policy_dump(policy).strip().split("\n")
        stage1 = [line for line in lines if line.startswith("1,")]
        assert stage1 == ["1,0|1,1,1,keep", "1,1|0,1,0,keep"]


def exact_pair_value(thetas, n):
    """W(counts, budget) of the post-decision pair in exact arithmetic, for
    the source whose probabilities are the decimal strings ``thetas``;
    zero-probability outcomes are skipped, as ``arrivals`` does."""
    probs = [Fraction(t) for t in thetas]
    memo = {}

    def w(counts, budget):
        if (counts, budget) not in memo:
            if sum(counts) == n:
                value = -sum(abs(Fraction(c, n) - p) for c, p in zip(counts, probs))
            else:
                value = Fraction(0)
                for v, p in enumerate(probs):
                    if p:
                        nxt = list(counts)
                        nxt[v] += 1
                        state = TeacherState(tuple(nxt), budget, v)
                        value += p * max(w(*apply_action(state, a))
                                         for a in feasible_actions(state, len(probs)))
            memo[counts, budget] = value
        return memo[counts, budget]

    return w


def float_pair_value(spec):
    """W(counts, budget) in floats by memoised recursion, computed as
    ``solve`` computes it: arrivals added in outcome order from 0.0, each
    valued by its first strictly best action."""
    memo = {}

    def w(counts, budget):
        if (counts, budget) not in memo:
            if sum(counts) == spec.n:
                value = spec.reward.evaluate(CountVector(counts))
            else:
                value = 0.0
                for state, p in arrivals(counts, budget, spec):
                    best = float("-inf")
                    for action in feasible_actions(state, spec.k):
                        after = w(*apply_action(state, action))
                        if after > best:
                            best = after
                    value += p * best
            memo[counts, budget] = value
        return memo[counts, budget]

    return w


def float_solve(thetas, n, budgets):
    """(spec, policy) of the float solve for the decimal strings ``thetas``."""
    spec = spec_for(Categorical(tuple(float(t) for t in thetas)), n)
    return spec, solve(spec, budgets)


def choices(policy):
    """(state, feasible actions) for every state of ``policy`` at which
    the teacher has more than one action."""
    for stage in policy.stages.values():
        for state in stage:
            actions = feasible_actions(state, policy.k)
            if len(actions) > 1:
                yield state, actions


# theta = (p, 1 - p) for p in {.45, .35, .3, .25}, n in {10, 20}, budgets 0-3
K2_TIE_GRID = [((p, q), n) for p, q in (("0.45", "0.55"), ("0.35", "0.65"),
                                        ("0.3", "0.7"), ("0.25", "0.75"))
               for n in (10, 20)]


class TestExactTies:
    """``solve`` against backward induction in ``fractions.Fraction``. The
    float policy must take the exact optimum at every strict decision; at
    an exact tie the float rounding of the rewards may pick either side."""

    @pytest.mark.parametrize("thetas,n,budgets", [
        *[(thetas, n, (0, 1, 2, 3)) for thetas, n in K2_TIE_GRID],
        (("0.4", "0.35", "0.25"), 6, (0, 1, 2)),
        (("0.1", "0.2", "0.3", "0.4"), 4, (1, 2)),
        (("0.5", "0.5", "0"), 6, (1, 2)),
    ])
    def test_float_policy_takes_an_exact_optimum(self, thetas, n, budgets):
        w = exact_pair_value(thetas, n)
        _, policy = float_solve(thetas, n, budgets)
        wrong = []
        for state, actions in choices(policy):
            exact = {a: w(*apply_action(state, a)) for a in actions}
            if exact[policy.action_for(state)] != max(exact.values()):
                wrong.append(state)
        assert wrong == []

    def test_count_of_ties_rounding_decides_on_the_k2_grid(self):
        with_choice = ties = rounded = 0
        for thetas, n in K2_TIE_GRID:
            spec, policy = float_solve(thetas, n, (0, 1, 2, 3))
            w, fw = exact_pair_value(thetas, n), float_pair_value(spec)
            assert [fw((0, 0), b) for b in policy.budgets] == list(policy.root_values.values())
            for state, actions in choices(policy):
                with_choice += 1
                keep, change = (apply_action(state, a) for a in actions)
                if w(*keep) == w(*change):
                    ties += 1
                    gap = abs(fw(*keep) - fw(*change))
                    if gap:
                        rounded += 1
                        assert gap < 2e-16
        # 412 of the exact ties are float ties too, which keep wins
        assert (with_choice, ties, rounded) == (6360, 468, 56)
