import itertools
import json
import math

import pytest

from corrlearn.core import Categorical, CountVector
from corrlearn.dp import solve
from corrlearn.likelihood import (
    CANDIDATE_FILE_VERSION,
    CandidateModel,
    CandidateSet,
    bio_terminal_reward,
    default_candidates,
    ml_estimate,
    negative_log_likelihood,
)
from corrlearn.mdp import MdpSpec
from oracles import brute_force_value, root_value


@pytest.fixture(scope="module")
def candidates():
    return default_candidates()


def cv(counts):
    return CountVector(tuple(counts))


def write_candidates(candidates, path):
    """A candidate file in the format ``CandidateSet.from_file`` reads."""
    models = [{"theta": m.theta, "probs": list(m.action_dist.probs)}
              for m in candidates.models]
    path.write_text(json.dumps({"version": CANDIDATE_FILE_VERSION, "models": models}))


class TestDefaultCandidates:
    def test_labels_and_shape(self, candidates):
        assert candidates.labels() == (1, 4, 8)
        assert {m.action_dist.k for m in candidates.models} == {4}

    def test_known_probabilities(self, candidates):
        assert candidates.by_label(4).action_dist.probs[1] == pytest.approx(
            0.7422258592471358, rel=1e-12
        )
        assert candidates.by_label(1).action_dist.probs[2] == pytest.approx(
            0.0025974025974025974, rel=1e-12
        )
        assert candidates.by_label(8).action_dist.probs[3] == pytest.approx(
            0.12225475841874085, rel=1e-12
        )


class TestCandidateSetValidation:
    def test_needs_two_models(self):
        with pytest.raises(ValueError):
            CandidateSet((CandidateModel(1, Categorical((0.5, 0.5))),))

    def test_labels_must_be_distinct(self):
        m = CandidateModel(1, Categorical((0.5, 0.5)))
        with pytest.raises(ValueError, match="distinct"):
            CandidateSet((m, CandidateModel(1, Categorical((0.4, 0.6)))))

    def test_action_counts_must_agree(self):
        with pytest.raises(ValueError, match="action count"):
            CandidateSet((
                CandidateModel(1, Categorical((0.5, 0.5))),
                CandidateModel(2, Categorical((0.4, 0.3, 0.3))),
            ))

    def test_unknown_label_lookup(self, candidates):
        with pytest.raises(KeyError):
            candidates.by_label(3)


class TestCandidateFiles:
    def test_round_trip(self, candidates, tmp_path):
        path = tmp_path / "models.json"
        write_candidates(candidates, path)
        loaded = CandidateSet.from_file(path)
        assert loaded == candidates

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "models": []}')
        with pytest.raises(ValueError, match="version"):
            CandidateSet.from_file(path)


class TestNegativeLogLikelihood:
    def test_single_action_history(self, candidates):
        model = candidates.by_label(4)
        expected = -10 * math.log(model.action_dist.probs[1])
        assert negative_log_likelihood(cv((0, 10, 0, 0)), model) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected == pytest.approx(2.9810, abs=1e-4)

    def test_empty_history_scores_zero(self, candidates):
        for model in candidates.models:
            assert negative_log_likelihood(cv((0, 0, 0, 0)), model) == 0.0

    def test_impossible_observation_is_infinite(self):
        model = CandidateModel(2, Categorical((0.0, 1.0)))
        assert negative_log_likelihood(cv((1, 0)), model) == math.inf

    def test_additive_in_counts(self, candidates):
        import random

        rng = random.Random(8)
        for model in candidates.models:
            for _ in range(50):
                a = [rng.randint(0, 5) for _ in range(4)]
                b = [rng.randint(0, 5) for _ in range(4)]
                both = [x + y for x, y in zip(a, b)]
                assert negative_log_likelihood(cv(both), model) == pytest.approx(
                    negative_log_likelihood(cv(a), model)
                    + negative_log_likelihood(cv(b), model),
                    rel=1e-12, abs=1e-12,
                )

    def test_dimension_mismatch(self, candidates):
        with pytest.raises(ValueError):
            negative_log_likelihood(cv((1, 2)), candidates.by_label(4))


class TestMlEstimate:
    @pytest.mark.parametrize(
        "counts,expected",
        [
            ((0, 10, 0, 0), 8),
            ((3, 6, 0, 1), 8),
            ((1, 7, 1, 1), 4),
        ],
    )
    def test_known_histories(self, candidates, counts, expected):
        assert ml_estimate(cv(counts), candidates) == expected

    def test_empty_history_rejected(self, candidates):
        with pytest.raises(ValueError, match="no observations"):
            ml_estimate(cv((0, 0, 0, 0)), candidates)

    def test_all_models_impossible_rejected(self):
        models = CandidateSet((
            CandidateModel(1, Categorical((0.0, 1.0))),
            CandidateModel(2, Categorical((0.0, 1.0))),
        ))
        assert ml_estimate(cv((1, 0)), models) is None

    def test_ties_break_to_smallest_label(self):
        shared = Categorical((0.5, 0.5))
        models = CandidateSet((
            CandidateModel(7, shared),
            CandidateModel(2, shared),
        ))
        assert ml_estimate(cv((3, 2)), models) == 2

    def test_invariant_under_count_scaling(self, candidates):
        for counts in ((1, 7, 1, 1), (3, 6, 0, 1), (2, 2, 0, 0)):
            base = ml_estimate(cv(counts), candidates)
            for scale in (2, 3, 5):
                scaled = tuple(c * scale for c in counts)
                assert ml_estimate(cv(scaled), candidates) == base


class TestBioTerminalReward:
    def test_correct_identification_scores_zero(self, candidates):
        reward = bio_terminal_reward(4, candidates)
        assert reward.evaluate(cv((1, 7, 1, 1))) == 0.0

    def test_absolute_distance_between_labels(self, candidates):
        reward = bio_terminal_reward(4, candidates)
        assert reward.evaluate(cv((0, 10, 0, 0))) == -4.0
        assert reward.evaluate(cv((3, 6, 0, 1))) == -4.0

    def test_unknown_label_rejected(self, candidates):
        with pytest.raises(KeyError):
            bio_terminal_reward(3, candidates)

    def test_unexplained_history_scores_the_worst_misidentification(self):
        models = CandidateSet((
            CandidateModel(1, Categorical((0.5, 0.5, 0.0))),
            CandidateModel(4, Categorical((0.0, 0.5, 0.5))),
            CandidateModel(6, Categorical((0.2, 0.6, 0.2))),
        ))
        reward = bio_terminal_reward(4, models)
        assert reward.evaluate(cv((1, 0, 1))) == -2  # only label 6 explains it
        models = CandidateSet(models.models[:2])
        assert bio_terminal_reward(4, models).evaluate(cv((1, 0, 1))) == -3
        assert ml_estimate(cv((1, 0, 1)), models) is None


class TestRewardPlumbing:
    def test_passive_root_matches_direct_expectation(self, candidates):
        # with no budget the process is a pure expectation of the
        # identification loss over all action histories
        n = 4
        true_dist = candidates.by_label(4).action_dist
        spec = MdpSpec(n=n, model=true_dist, reward=bio_terminal_reward(4, candidates))
        policy = solve(spec, (0,))
        direct = 0.0
        for values in itertools.product(range(4), repeat=n):
            prob = 1.0
            for v in values:
                prob *= true_dist.probs[v]
            counts = [0] * 4
            for v in values:
                counts[v] += 1
            direct -= prob * abs(ml_estimate(cv(counts), candidates) - 4)
        assert root_value(policy, spec, 0) == pytest.approx(direct, abs=1e-12)


    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_root_value_matches_brute_force_with_zero_probabilities(self, budget):
        # relabels reach final counts that neither candidate explains
        models = CandidateSet((
            CandidateModel(1, Categorical((0.5, 0.5, 0.0))),
            CandidateModel(4, Categorical((0.0, 0.5, 0.5))),
        ))
        true_dist = models.by_label(4).action_dist
        spec = MdpSpec(n=3, model=true_dist, reward=bio_terminal_reward(4, models))
        assert root_value(solve(spec, (budget,)), spec, budget) == pytest.approx(
            brute_force_value(spec, budget), abs=1e-12)
