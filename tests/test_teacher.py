import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlearn import teacher
from corrlearn.batch import attainable_error, batch_correct, e_min
from corrlearn.core import (
    Categorical,
    CountVector,
    empirical_estimate,
    l1_error,
    sample_sequence,
    spawn,
)
from corrlearn.dp import solve
from corrlearn.mdp import (
    Action,
    BudgetExhaustedError,
    MdpSpec,
    TeacherState,
    apply_action,
    l1_terminal_reward,
)
from corrlearn.teacher import (
    replay_all,
    replays,
)
from oracles import BinomialThresholdPolicy, expected_online_error, traced_memory
from test_dp import counted_derivations
from test_mdp import assert_valid_state


def spec_for(theta, n):
    return MdpSpec(n=n, model=theta, reward=l1_terminal_reward(theta))


def solved_policy(theta, n, budget):
    spec = spec_for(theta, n)
    policy = solve(spec, (budget,))
    return policy, policy.root_values[budget]


def tally(values, k):
    """Count vector of one stream."""
    return CountVector(tuple(np.bincount(values, minlength=k).tolist()))


def replay_one(values, k, policy, budget):
    """``replay_all`` on a 1-row array: the corrected stream, the final
    counts and the budget spent, as ``stream_replay`` gives them."""
    corrected, counts, spent = replay_all(np.array([values]), k, policy, budget)
    return tuple(corrected[0].tolist()), tuple(counts[0].tolist()), int(spent[0])


def online_error(values, policy, budget, theta):
    _, counts, _ = replay_one(values, theta.k, policy, budget)
    return l1_error(empirical_estimate(CountVector(counts)), theta)


def all_streams(k, n):
    return np.array(list(itertools.product(range(k), repeat=n)))


def enumerated_online_error(policy, model, n, budget):
    """Oracle for ``expected_online_error``: replay all k^n streams of
    nonzero probability in one ``replay_all`` call."""
    streams = all_streams(model.k, n)
    probs = np.array([math.prod(model.probs[v] for v in row) for row in streams.tolist()])
    streams, probs = streams[probs > 0.0], probs[probs > 0.0]
    _, counts, _ = replay_all(streams, model.k, policy, budget)
    total = 0.0
    for prob, final in zip(probs.tolist(), counts.tolist()):
        total += prob * l1_error(empirical_estimate(CountVector(tuple(final))), model)
    return total


class TestRunOnline:
    """One stream replayed online: ``replay_all`` on a 1-row array."""

    def test_zero_budget_passes_everything_through(self):
        theta = Categorical((0.4, 0.3, 0.3))
        policy, _ = solved_policy(theta, 6, 0)
        (row,) = sample_sequence(theta, 6, [12])
        corrected, _, spent = replay_one(row, 3, policy, 0)
        assert corrected == tuple(row.tolist())
        assert spent == 0

    def test_seven_ones_lose_one(self):
        theta = Categorical((0.5, 0.5))
        policy, _ = solved_policy(theta, 10, 1)
        values = (1, 1, 0, 1, 1, 1, 0, 0, 1, 1)
        corrected, counts, spent = replay_one(values, 2, policy, 1)
        assert tally(corrected, 2).counts == counts == (4, 6)
        assert online_error(values, policy, 1, theta) == pytest.approx(0.2, abs=1e-12)
        assert spent == 1

    def test_changes_match_budget_spent(self):
        theta = Categorical((0.4, 0.3, 0.3))
        policy, _ = solved_policy(theta, 5, 2)
        streams = sample_sequence(theta, 5, spawn(1000, [(t,) for t in range(40)]))
        for row in streams.tolist():
            corrected, counts, spent = replay_one(row, 3, policy, 2)
            diffs = sum(1 for a, b in zip(row, corrected) if a != b)
            assert diffs == spent <= 2
            assert counts == tally(corrected, 3).counts

    def test_change_with_no_budget_left_raises(self):
        with pytest.raises(BudgetExhaustedError):
            replay_one((0, 1, 1), 2, AlwaysFlip(), 2)

    def test_online_never_beats_batch(self):
        theta = Categorical((0.4, 0.3, 0.3))
        policy, _ = solved_policy(theta, 5, 1)
        values = (1, 2, 0, 2, 0)
        err = online_error(values, policy, 1, theta)
        batch = batch_correct(tally(values, 3), theta, 1).error
        assert err >= batch - 1e-12

    def test_mismatched_policy_rejected(self):
        theta = Categorical((0.5, 0.5))
        policy, _ = solved_policy(theta, 4, 1)
        (row,) = sample_sequence(theta, 4, [3])
        with pytest.raises(ValueError, match="solved for"):
            replay_one(row, 2, policy, 2)
        with pytest.raises(ValueError, match="solved for"):
            replay_one(sample_sequence(theta, 5, [3])[0], 2, policy, 1)

    def test_shared_policy_serves_exactly_its_start_budgets(self):
        theta = Categorical((0.5, 0.5))
        policy = solve(spec_for(theta, 4), (3, 0))
        assert policy.budgets == (0, 3)
        (row,) = sample_sequence(theta, 4, [3])
        for budget in (0, 3):
            assert replay_one(row, 2, policy, budget) == stream_replay(row, 2, policy, budget)
        for budget in (1, 2, 4):
            with pytest.raises(ValueError, match="solved for"):
                replay_one(row, 2, policy, budget)


class TestBinomialPolicyAction:
    theta = Categorical((0.5, 0.5))

    def test_below_threshold_keeps(self):
        state = TeacherState((2, 4), 1, 1)
        assert BinomialThresholdPolicy(self.theta, 10).action_for(state) == Action(1)

    def test_above_threshold_flips(self):
        state = TeacherState((2, 6), 1, 1)
        assert BinomialThresholdPolicy(self.theta, 10).action_for(state) == Action(0)

    def test_exhausted_budget_keeps(self):
        state = TeacherState((2, 6), 0, 1)
        assert BinomialThresholdPolicy(self.theta, 10).action_for(state) == Action(1)

    def test_two_outcomes_only(self):
        policy = BinomialThresholdPolicy(Categorical((0.4, 0.3, 0.3)), 5)
        with pytest.raises(ValueError):
            policy.action_for(TeacherState((1, 0, 0), 1, 0))

    def test_threshold_rounds_half_away_from_zero(self):
        # theta0*n = 3.5 rounds to 4: a count of 4 keeps, 5 flips
        policy = BinomialThresholdPolicy(Categorical((0.7, 0.3)), 5)
        assert policy.action_for(TeacherState((4, 1), 1, 0)) == Action(0)
        assert policy.action_for(TeacherState((5, 0), 1, 0)) == Action(1)


class TestBinomialOptimality:
    """Closed-form and solved policies both hit the per-sequence floor."""

    theta = Categorical((0.5, 0.5))
    n = 10

    @pytest.mark.parametrize("budget", [1, 2])
    def test_closed_form_attains_floor_on_every_sequence(self, budget):
        policy = BinomialThresholdPolicy(self.theta, self.n)
        streams = all_streams(2, self.n)
        _, counts, _ = replay_all(streams, 2, policy, budget)
        for row, final in zip(streams, counts.tolist()):
            floor = attainable_error(
                self.n, self.theta, budget, empirical_estimate(tally(row, 2)))
            err = l1_error(empirical_estimate(CountVector(tuple(final))), self.theta)
            assert err == pytest.approx(floor, abs=1e-12)

    def test_closed_form_expectation_matches_solver(self):
        policy = BinomialThresholdPolicy(self.theta, self.n)
        expected = expected_online_error(policy, self.theta, self.n, 1)
        _, root = solved_policy(self.theta, self.n, 1)
        assert -expected == pytest.approx(root, abs=1e-12)

    def test_solved_policy_never_hurts_a_sequence(self):
        streams = all_streams(2, self.n)
        for budget in (1, 2):
            policy, _ = solved_policy(self.theta, self.n, budget)
            _, counts, _ = replay_all(streams, 2, policy, budget)
            for row, final in zip(streams, counts.tolist()):
                original = l1_error(empirical_estimate(tally(row, 2)), self.theta)
                online = l1_error(
                    empirical_estimate(CountVector(tuple(final))), self.theta)
                assert online <= original + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.37, 0.4, 0.45, 0.5, 0.62]),
        n=st.integers(1, 30),
        budget=st.integers(0, 5),
    )
    def test_closed_form_value_is_optimal(self, p, n, budget):
        # the second oracle for ``solve`` where brute force cannot reach
        theta = Categorical((p, 1 - p))
        expected = expected_online_error(BinomialThresholdPolicy(theta, n), theta, n, budget)
        _, root = solved_policy(theta, n, budget)
        assert abs(expected + root) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.37, 0.45, 0.5, 0.55, 0.7, 0.9]),
        n=st.integers(1, 30),
        budget=st.integers(1, 5),
    )
    def test_online_teacher_ends_where_batch_correction_does(self, p, n, budget):
        # at k=2 a value counted past its final quota can be flipped at once,
        # and the flip is never regretted, so being online costs nothing
        theta = Categorical((p, 1 - p))
        policy, _ = solved_policy(theta, n, budget)
        batch = [batch_correct(CountVector((j, n - j)), theta, budget) for j in range(n + 1)]
        if n <= 12:
            streams = all_streams(2, n)
        else:
            streams = (np.random.default_rng([n, budget]).random((3000, n)) >= p).astype(int)
        _, counts, _ = replay_all(streams, 2, policy, budget)
        # at a half-integer p*n both candidate counts are as close, and
        # float rounding of their errors picks one
        if abs(p * n % 1 - 0.5) > 1e-9:
            zeros = (streams == 0).sum(axis=1)
            assert counts.tolist() == [list(batch[j].corrected.counts) for j in zeros]
        exact_batch = math.fsum(math.comb(n, j) * p**j * (1 - p)**(n - j) * batch[j].error
                                for j in range(n + 1))
        assert abs(expected_online_error(policy, theta, n, budget) - exact_batch) <= 1e-15

    def test_closed_form_value_is_optimal_at_long_horizon(self):
        theta = Categorical((0.37, 0.63))
        expected = expected_online_error(BinomialThresholdPolicy(theta, 200), theta, 200, 1)
        _, root = solved_policy(theta, 200, 1)
        assert abs(expected + root) <= 1e-12


class TestMultinomialBehaviour:
    def test_mean_improves_even_if_single_runs_may_not(self):
        # with several outcome values a correction can backfire on an
        # unlucky tail, so only the mean is asserted
        theta = Categorical((0.4, 0.3, 0.3))
        policy, _ = solved_policy(theta, 5, 1)
        orig, online = [], []
        for row in sample_sequence(theta, 5, spawn(2000, [(t,) for t in range(60)])):
            orig.append(l1_error(empirical_estimate(tally(row, 3)), theta))
            online.append(online_error(row, policy, 1, theta))
        assert sum(online) / len(online) <= sum(orig) / len(orig)

    def test_batch_lower_bounds_online_everywhere(self):
        theta = Categorical((0.4, 0.3, 0.3))
        rng = random.Random(61)
        for budget in (0, 1, 2):
            policy, _ = solved_policy(theta, 5, budget)
            seeds = [rng.randrange(2**32) for _ in range(40)]
            for row in sample_sequence(theta, 5, seeds):
                err = online_error(row, policy, budget, theta)
                batch = batch_correct(tally(row, 3), theta, budget).error
                assert batch <= err + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        weights=st.integers(2, 4).flatmap(
            lambda k: st.lists(st.integers(0, 9), min_size=k, max_size=k)
        ).filter(any),
        n=st.integers(1, 8),
        budgets=st.sets(st.integers(0, 3), min_size=1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_lies_between_the_floor_and_online_on_any_alphabet(
        self, weights, n, budgets, seed
    ):
        theta = Categorical(tuple(w / sum(weights) for w in weights))
        streams = sample_sequence(theta, n, spawn(seed, [(t,) for t in range(8)]))
        originals = [tally(row, theta.k) for row in streams]
        floor = e_min(n, theta).error
        for budget, (rows, which), _ in replays(
            streams, theta, l1_terminal_reward(theta), sorted(budgets)
        ):
            for original, row in zip(originals, rows[which].tolist()):
                online = l1_error(empirical_estimate(CountVector(tuple(row))), theta)
                batch = batch_correct(original, theta, budget).error
                # the floor is exact, so only float rounding can put batch under it
                assert floor <= batch + 1e-12
                assert batch <= online + 1e-12


class TestExpectedOnlineError:
    def test_enumerates_exactly(self):
        theta = Categorical((0.5, 0.5))
        policy, _ = solved_policy(theta, 3, 0)
        # passive three-draw case: error is 0.5 on six mixed sequences and
        # 1.5 on the two constant ones -> mean 0.75... computed directly:
        direct = 0.0
        for values in itertools.product(range(2), repeat=3):
            direct += 0.125 * l1_error(empirical_estimate(tally(values, 2)), theta)
        assert expected_online_error(policy, theta, 3, 0) == pytest.approx(
            direct, abs=1e-12
        )

    @pytest.mark.parametrize("probs,n,budget", [
        ((0.5, 0.5), 8, 0),
        ((0.5, 0.5), 8, 2),
        ((0.7, 0.3), 7, 1),
        ((1.0, 0.0), 5, 2),
        ((0.4, 0.3, 0.3), 6, 2),
        ((0.6, 0.4, 0.0), 6, 1),
        ((0.5, 0.5, 0.0), 5, 3),
        ((0.7, 0.0, 0.2, 0.1), 5, 1),
        ((0.25, 0.25, 0.25, 0.25), 5, 2),
    ])
    def test_forward_evaluation_matches_enumeration(self, probs, n, budget):
        theta = Categorical(probs)
        policies = [solved_policy(theta, n, budget)[0]]
        if theta.k == 2:
            policies.append(BinomialThresholdPolicy(theta, n))
        for policy in policies:
            oracle = enumerated_online_error(policy, theta, n, budget)
            assert abs(expected_online_error(policy, theta, n, budget) - oracle) <= 1e-12

    def test_long_horizon_closed_form_evaluates(self):
        # 2^40 streams: far beyond enumeration, a few hundred pairs forward
        theta = Categorical((0.5, 0.5))
        error = expected_online_error(BinomialThresholdPolicy(theta, 40), theta, 40, 1)
        passive = expected_online_error(BinomialThresholdPolicy(theta, 40), theta, 40, 0)
        assert 0.0 < error < passive

    def test_mismatched_policy_rejected(self):
        theta = Categorical((0.5, 0.5))
        policy, _ = solved_policy(theta, 4, 1)
        with pytest.raises(ValueError, match="solved for"):
            expected_online_error(policy, theta, 4, 2)
        with pytest.raises(ValueError, match="solved for"):
            expected_online_error(policy, theta, 5, 1)


def stream_replay(values, k, policy, budget):
    """Oracle for the all-trials replay: one stream, one state at a time."""
    counts, remaining, corrected = (0,) * k, budget, []
    for y in values:
        arrived = list(counts)
        arrived[y] += 1
        state = TeacherState(tuple(arrived), remaining, y)
        action = policy.action_for(state)
        counts, remaining = apply_action(state, action)
        corrected.append(action.target)
    return tuple(corrected), counts, budget - remaining


class LeanToZero:
    """Hand-written policy: change a 1 to 0 whenever budget is left and
    zeros trail ones in the counts so far."""

    def action_for(self, state):
        if state.budget and state.last_obs == 1 and state.counts[0] < state.counts[1]:
            return Action(0)
        return Action(state.last_obs)


class AlwaysFlip:
    def action_for(self, state):
        return Action(1 - state.last_obs)


class TowardFewest:
    """Hand-written k-value policy: while budget is left, change a value
    that leads the counts to the first value with the fewest."""

    def action_for(self, state):
        fewest = state.counts.index(min(state.counts))
        if state.budget and state.counts[state.last_obs] == max(state.counts):
            return Action(fewest)
        return Action(state.last_obs)


class OneToTwo:
    def action_for(self, state):
        return Action(2 if state.budget and state.last_obs == 1 else state.last_obs)


class TestReplayAll:
    @pytest.mark.parametrize("budget", [0, 1, 3])
    def test_matches_stream_by_stream_replay(self, budget):
        theta = Categorical((0.5, 0.5))
        streams = all_streams(2, 7)
        for policy in (BinomialThresholdPolicy(theta, 7), LeanToZero()):
            corrected, counts, spent = replay_all(streams, 2, policy, budget)
            for values, row, final, used in zip(streams.tolist(), corrected, counts, spent):
                assert (tuple(row), tuple(final), used) == stream_replay(values, 2, policy, budget)

    @pytest.mark.parametrize("budget", [0, 1, 2, 4])
    def test_matches_stream_by_stream_replay_at_three_values(self, budget):
        theta = Categorical((0.4, 0.35, 0.25))
        streams = all_streams(3, 6)
        solved, _ = solved_policy(theta, 6, budget)
        for policy in (solved, TowardFewest()):
            corrected, counts, spent = replay_all(streams, 3, policy, budget)
            for values, row, final, used in zip(streams.tolist(), corrected, counts, spent):
                assert (tuple(row), tuple(final), used) == stream_replay(values, 3, policy, budget)

    def test_distinct_states_reaching_one_pair_share_the_next_query(self):
        asked = []

        class Recording(OneToTwo):
            def action_for(self, state):
                asked.append(state)
                return super().action_for(state)

        # (0, 1) keeps 0 then changes 1->2; (1, 0) changes 1->2 then keeps 0:
        # two stage-2 states, one pair ((1, 0, 1), 0) after them
        streams = np.array([(0, 1, 2), (1, 0, 2)])
        corrected, counts, spent = replay_all(streams, 3, Recording(), 1)
        assert corrected.tolist() == [[0, 2, 2], [2, 0, 2]]
        assert counts.tolist() == [[1, 0, 2]] * 2 and spent.tolist() == [1, 1]
        assert sorted((s for s in asked if s.stage == 2), key=lambda s: s.counts) == [
            TeacherState((1, 0, 1), 0, 0), TeacherState((1, 1, 0), 1, 1)]
        assert [s for s in asked if s.stage == 3] == [TeacherState((1, 0, 2), 0, 2)]

    @pytest.mark.parametrize("value", [-1, 3])
    def test_stream_value_outside_the_alphabet_raises(self, value):
        with pytest.raises(ValueError, match=r"stream values must lie in \[0, 3\)"):
            replay_all(np.array([(0, 1, 2), (1, value, 0)]), 3, OneToTwo(), 1)

    def test_overspending_policy_raises_inside_a_batch(self):
        with pytest.raises(BudgetExhaustedError):
            replay_all(np.array([(0, 1, 1), (1, 1, 0), (0, 0, 0)]), 2, AlwaysFlip(), 2)

    @pytest.mark.parametrize("target", [2, -1])
    def test_out_of_alphabet_target_raises_inside_a_batch(self, target):
        class Outside:
            def action_for(self, state):
                return Action(target if state.stage == 2 else state.last_obs)

        with pytest.raises(ValueError, match=f"action target {target} outside the alphabet"):
            replay_all(np.array([(0, 1, 1), (1, 1, 0), (0, 0, 0)]), 2, Outside(), 1)

    def test_negative_start_budget_raises_for_any_policy(self):
        class Keep:
            def action_for(self, state):
                return Action(state.last_obs)

        streams = np.array([(0, 1, 1)])
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            replay_all(streams, 2, Keep(), -1)
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            teacher._replay(streams, 2, Keep(), (1, -1))
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            expected_online_error(Keep(), Categorical((0.5, 0.5)), 3, -1)

    def test_distinct_rows_are_sorted_with_each_rows_position(self):
        rows = np.array([(1, 0, 2), (0, 3, 1), (1, 0, 2), (0, 3, 0)])
        distinct, which = teacher.distinct_rows(rows)
        assert distinct.tolist() == [[0, 3, 0], [0, 3, 1], [1, 0, 2]]
        assert which.tolist() == [2, 1, 2, 0]

    def test_asks_the_policy_once_per_distinct_state(self):
        asked = []

        class Recording(LeanToZero):
            def action_for(self, state):
                asked.append(state)
                return super().action_for(state)

        # 18 replay steps, three distinct states per stream
        replay_all(np.array([(0, 1, 1)] * 5 + [(1, 1, 0)]), 2, Recording(), 1)
        assert len(asked) == len(set(asked)) == 6

    @settings(max_examples=40, deadline=None)
    @given(
        probs=st.sampled_from([(0.5, 0.5), (0.8, 0.2), (0.4, 0.3, 0.3), (0.5, 0.5, 0.0)]),
        n=st.integers(1, 6),
        budgets=st.lists(st.integers(0, 3), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_replays_spend_within_budget_and_keep_n_draws(self, probs, n, budgets, seed):
        theta = Categorical(probs)
        streams = sample_sequence(theta, n, spawn(seed, [(t,) for t in range(8)]))
        policy = solve(spec_for(theta, n), budgets)
        for budget in budgets:
            corrected, counts, spent = replay_all(streams, theta.k, policy, budget)
            assert (spent <= budget).all()
            assert (spent == (corrected != streams).sum(axis=1)).all()
            assert (counts.sum(axis=1) == n).all()
            tallies = [tally(row, theta.k).counts for row in corrected]
            assert tallies == [tuple(row) for row in counts.tolist()]


class TestReplays:
    @pytest.mark.parametrize("budgets", [(0, 2, 1), (1, 1)])
    def test_matches_per_budget_solve_and_per_stream_replay(self, budgets):
        self.check_matches_per_budget_solve(Categorical((0.4, 0.3, 0.3)), 5, budgets, 77)

    @settings(max_examples=30, deadline=None)
    @given(
        probs=st.sampled_from([(0.5, 0.5), (1.0, 0.0), (0.4, 0.3, 0.3), (0.5, 0.5, 0.0),
                               (0.1, 0.2, 0.3, 0.4), (0.4, 0.0, 0.3, 0.3)]),
        n=st.integers(1, 6),
        budgets=st.lists(st.integers(0, 3), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_budget_solve_on_any_alphabet_and_budgets(self, probs, n, budgets, seed):
        self.check_matches_per_budget_solve(Categorical(probs), n, budgets, seed)

    @staticmethod
    def check_matches_per_budget_solve(theta, n, budgets, seed):
        streams = sample_sequence(theta, n, spawn(seed, [(t,) for t in range(10)]))
        seen = []
        for budget, counts, spent in replays(
            streams, theta, l1_terminal_reward(theta), budgets
        ):
            policy, _ = solved_policy(theta, n, budget)
            oracle = [stream_replay(row, theta.k, policy, budget) for row in streams.tolist()]
            rows, which = counts
            assert [tuple(row) for row in rows[which].tolist()] == [c for _, c, _ in oracle]
            # each distinct final count vector once, in sorted order
            assert [tuple(row) for row in rows.tolist()] == sorted({c for _, c, _ in oracle})
            assert spent.tolist() == [b for _, _, b in oracle]
            seen.append(budget)
        assert seen == list(budgets)

    def test_asks_the_policy_once_per_distinct_state_across_budgets(self, monkeypatch):
        # a budget-2 trial that has spent one unit is in a budget-1 trial's state
        asked = []
        derived = counted_derivations(monkeypatch)

        class Recording:
            def __init__(self, policy):
                self.policy = policy

            def __getattr__(self, name):
                return getattr(self.policy, name)

            def action_for(self, state):
                asked.append(state)
                return self.policy.action_for(state)

        monkeypatch.setattr(teacher, "solve", lambda *args: Recording(solve(*args)))
        theta = Categorical((0.4, 0.3, 0.3))
        streams = sample_sequence(theta, 6, spawn(11, [(t,) for t in range(50)]))
        list(replays(streams, theta, l1_terminal_reward(theta), (0, 1, 2)))
        assert {state.budget for state in asked} == {0, 1, 2}
        assert len(asked) == len(set(asked))
        # the solve derived no action of its own: each one asked, once
        assert len(derived) == len(asked)
        # asked stage by stage, each state valid for its stage
        stages = [sum(state.counts) for state in asked]
        assert stages == sorted(stages) and set(stages) == set(range(1, 7))
        for stage, state in zip(stages, asked):
            assert_valid_state(state, stage, 3, 2)

    def test_one_solve_serves_every_budget(self, monkeypatch):
        calls = []

        def counted(spec, budgets, **kwargs):
            calls.append((budgets, kwargs))
            return solve(spec, budgets, **kwargs)

        monkeypatch.setattr(teacher, "solve", counted)
        theta = Categorical((0.5, 0.5))
        streams = sample_sequence(theta, 4, spawn(5, [(t,) for t in range(3)]))
        budgets = [budget for budget, _, _ in replays(
            streams, theta, l1_terminal_reward(theta), (2, 0, 2))]
        assert budgets == [2, 0, 2]
        assert calls == [((2, 0, 2), {})]

    def test_builds_no_corrected_streams(self):
        # the (trials x n) corrected streams take 8 B a draw, 15.3 MiB here:
        # the replay peaked at 21.7 MiB while it built them, 6.3 MiB without
        theta = Categorical((0.4, 0.3, 0.3))
        streams = np.random.default_rng(3).integers(0, 3, size=(200_000, 10))

        def replayed(rows):
            return list(replays(rows, theta, l1_terminal_reward(theta), (1,)))

        _, peak = traced_memory(lambda: replayed(streams), lambda: replayed(streams[:100]))
        assert peak <= 10 * 2**20

    def test_no_sequences_rejected(self):
        theta = Categorical((0.5, 0.5))
        with pytest.raises(ValueError, match="no streams"):
            next(replays(np.empty((0, 4), dtype=np.int64), theta,
                         l1_terminal_reward(theta), (1,)))
