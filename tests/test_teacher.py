import itertools
import math
import random

import pytest

from corrlearn.batch import attainable_error, batch_correct
from corrlearn.core import (
    Categorical,
    ObservationSequence,
    Seed,
    counts_from_sequence,
    empirical_estimate,
    l1_error,
    sample_sequence,
)
from corrlearn.dp import root_value, solve
from corrlearn.mdp import Action, MdpSpec, TeacherState, l1_terminal_reward
from corrlearn.teacher import (
    BinomialThresholdPolicy,
    expected_online_error,
    replays,
    run_online,
)


def solved_policy(theta, n, budget):
    spec = MdpSpec(k=theta.k, n=n, budget=budget, model=theta,
                   reward=l1_terminal_reward(theta))
    policy, table = solve(spec)
    return policy, root_value(table, spec)


def online_error(seq, policy, budget, theta):
    trace = run_online(seq, policy, budget)
    return l1_error(empirical_estimate(trace.counts), theta)


def enumerated_online_error(policy, model, n, budget):
    """Oracle for ``expected_online_error``: replay all k^n streams."""
    total = 0.0
    for values in itertools.product(range(model.k), repeat=n):
        prob = math.prod(model.probs[v] for v in values)
        if prob == 0.0:
            continue
        trace = run_online(ObservationSequence(values, model.k), policy, budget)
        counts = counts_from_sequence(trace.corrected)
        total += prob * l1_error(empirical_estimate(counts), model)
    return total


class TestRunOnline:
    def test_zero_budget_passes_everything_through(self):
        theta = Categorical((0.4, 0.3, 0.3))
        policy, _ = solved_policy(theta, 6, 0)
        seq = sample_sequence(theta, 6, Seed(12))
        trace = run_online(seq, policy, 0)
        assert trace.corrected == seq
        assert trace.budget_spent == 0

    def test_seven_ones_lose_one(self):
        theta = Categorical((0.5, 0.5))
        policy, _ = solved_policy(theta, 10, 1)
        seq = ObservationSequence((1, 1, 0, 1, 1, 1, 0, 0, 1, 1), 2)
        trace = run_online(seq, policy, 1)
        counts = counts_from_sequence(trace.corrected)
        assert counts.counts == (4, 6)
        assert online_error(seq, policy, 1, theta) == pytest.approx(0.2, abs=1e-12)
        assert trace.budget_spent == 1

    def test_changes_match_budget_spent(self):
        theta = Categorical((0.4, 0.3, 0.3))
        policy, _ = solved_policy(theta, 5, 2)
        for trial in range(40):
            seq = sample_sequence(theta, 5, Seed(1000).spawn(trial))
            trace = run_online(seq, policy, 2)
            diffs = sum(
                1 for a, b in zip(seq.values, trace.corrected.values) if a != b
            )
            assert diffs == trace.budget_spent <= 2
            assert trace.counts == counts_from_sequence(trace.corrected)

    def test_online_never_beats_batch(self):
        theta = Categorical((0.4, 0.3, 0.3))
        policy, _ = solved_policy(theta, 5, 1)
        seq = ObservationSequence((1, 2, 0, 2, 0), 3)
        err = online_error(seq, policy, 1, theta)
        batch = batch_correct(counts_from_sequence(seq), theta, 1).error
        assert err >= batch - 1e-12

    def test_mismatched_policy_rejected(self):
        theta = Categorical((0.5, 0.5))
        policy, _ = solved_policy(theta, 4, 1)
        seq = sample_sequence(theta, 4, Seed(3))
        with pytest.raises(ValueError, match="solved for"):
            run_online(seq, policy, 2)
        with pytest.raises(ValueError, match="solved for"):
            run_online(sample_sequence(theta, 5, Seed(3)), policy, 1)


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
        for values in itertools.product(range(2), repeat=self.n):
            seq = ObservationSequence(values, 2)
            floor = attainable_error(
                self.n, self.theta, budget,
                empirical_estimate(counts_from_sequence(seq)),
            )
            err = online_error(seq, policy, budget, self.theta)
            assert err == pytest.approx(floor, abs=1e-12)

    def test_closed_form_expectation_matches_solver(self):
        policy = BinomialThresholdPolicy(self.theta, self.n)
        expected = expected_online_error(policy, self.theta, self.n, 1)
        _, root = solved_policy(self.theta, self.n, 1)
        assert -expected == pytest.approx(root, abs=1e-12)

    def test_solved_policy_never_hurts_a_sequence(self):
        for budget in (1, 2):
            policy, _ = solved_policy(self.theta, self.n, budget)
            for values in itertools.product(range(2), repeat=self.n):
                seq = ObservationSequence(values, 2)
                original = l1_error(
                    empirical_estimate(counts_from_sequence(seq)), self.theta
                )
                assert online_error(seq, policy, budget, self.theta) <= original + 1e-12


class TestMultinomialBehaviour:
    def test_mean_improves_even_if_single_runs_may_not(self):
        # with several outcome values a correction can backfire on an
        # unlucky tail, so only the mean is asserted
        theta = Categorical((0.4, 0.3, 0.3))
        policy, _ = solved_policy(theta, 5, 1)
        orig, online = [], []
        for trial in range(60):
            seq = sample_sequence(theta, 5, Seed(2000).spawn(trial))
            orig.append(l1_error(empirical_estimate(counts_from_sequence(seq)), theta))
            online.append(online_error(seq, policy, 1, theta))
        assert sum(online) / len(online) <= sum(orig) / len(orig)

    def test_batch_lower_bounds_online_everywhere(self):
        theta = Categorical((0.4, 0.3, 0.3))
        rng = random.Random(61)
        for budget in (0, 1, 2):
            policy, _ = solved_policy(theta, 5, budget)
            for _ in range(40):
                seq = sample_sequence(theta, 5, Seed(rng.randrange(2**32)))
                err = online_error(seq, policy, budget, theta)
                batch = batch_correct(counts_from_sequence(seq), theta, budget).error
                assert batch <= err + 1e-12


class TestExpectedOnlineError:
    def test_enumerates_exactly(self):
        theta = Categorical((0.5, 0.5))
        policy, _ = solved_policy(theta, 3, 0)
        # passive three-draw case: error is 0.5 on six mixed sequences and
        # 1.5 on the two constant ones -> mean 0.75... computed directly:
        direct = 0.0
        for values in itertools.product(range(2), repeat=3):
            counts = counts_from_sequence(ObservationSequence(values, 2))
            direct += 0.125 * l1_error(empirical_estimate(counts), theta)
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


class TestReplays:
    def test_one_solve_per_budget_and_same_traces_as_run_online(self):
        theta = Categorical((0.4, 0.3, 0.3))
        sequences = [sample_sequence(theta, 5, Seed(77).spawn(t)) for t in range(10)]
        seen = []
        for budget, traces in replays(sequences, theta, l1_terminal_reward(theta), (0, 2, 1)):
            policy, _ = solved_policy(theta, 5, budget)
            assert list(traces) == [run_online(seq, policy, budget) for seq in sequences]
            seen.append(budget)
        assert seen == [0, 2, 1]

    def test_no_sequences_rejected(self):
        theta = Categorical((0.5, 0.5))
        with pytest.raises(ValueError, match="no sequences"):
            next(replays([], theta, l1_terminal_reward(theta), (1,)))
