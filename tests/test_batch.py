import itertools
import math
import random

import pytest

from corrlearn.batch import attainable_error, batch_correct, e_min
from corrlearn.core import Categorical, CountVector, empirical_estimate


def brute_min_error(n, theta0):
    """Independent oracle: minimum l1 error over every count vector with
    sum n, candidates generated by raw product enumeration."""
    best = math.inf
    for cand in itertools.product(range(n + 1), repeat=theta0.k):
        if sum(cand) != n:
            continue
        err = math.fsum(abs(c / n - p) for c, p in zip(cand, theta0.probs))
        best = min(best, err)
    return best


def moves(a, b):
    """Observations moved between two count vectors of one total: each
    move changes two entries by one."""
    return sum(abs(x - y) for x, y in zip(a, b)) // 2


def brute_batch_error(counts, theta0, budget):
    """Independent oracle: best error over every vector within `budget`
    observation moves of `counts`."""
    n = sum(counts)
    best = math.inf
    for cand in itertools.product(range(n + 1), repeat=theta0.k):
        if sum(cand) != n:
            continue
        if moves(cand, counts) > budget:
            continue
        err = math.fsum(abs(c / n - p) for c, p in zip(cand, theta0.probs))
        best = min(best, err)
    return best


def rand_cat(rng, k):
    raw = [rng.random() + 0.05 for _ in range(k)]
    return Categorical(tuple(x / math.fsum(raw) for x in raw))


class TestEMin:
    def test_three_value_example(self):
        err, achiever = e_min(5, Categorical((0.4, 0.3, 0.3)))
        assert err == pytest.approx(0.2, abs=1e-12)
        estimate = empirical_estimate(achiever).probs
        assert estimate in ((0.4, 0.4, 0.2), (0.4, 0.2, 0.4))

    def test_integral_targets_reach_zero(self):
        err, achiever = e_min(10, Categorical((0.5, 0.5)))
        assert err == 0.0
        assert achiever.counts == (5, 5)

    def test_odd_split(self):
        err, achiever = e_min(3, Categorical((0.5, 0.5)))
        assert err == pytest.approx(1 / 3, abs=1e-12)
        assert achiever.counts in ((2, 1), (1, 2))

    def test_matches_brute_enumeration(self):
        rng = random.Random(21)
        for _ in range(60):
            k = rng.randint(2, 4)
            n = rng.randint(1, 9)
            theta0 = rand_cat(rng, k)
            assert e_min(n, theta0).error == pytest.approx(
                brute_min_error(n, theta0), abs=1e-12
            )

    def test_enumerate_and_apportion_agree(self):
        # apportionment against the exhaustive oracle, out to n = 12
        rng = random.Random(22)
        for _ in range(60):
            k = rng.randint(2, 4)
            n = rng.randint(1, 12)
            theta0 = rand_cat(rng, k)
            err, achiever = e_min(n, theta0)
            assert err == pytest.approx(brute_min_error(n, theta0), abs=1e-12)
            assert achiever.total == n

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            e_min(0, Categorical((0.5, 0.5)))


class TestAttainableError:
    def test_one_correction(self):
        assert attainable_error(
            10, Categorical((0.5, 0.5)), 1, Categorical((0.7, 0.3))
        ) == pytest.approx(0.2, abs=1e-12)

    def test_zero_budget_is_identity(self):
        assert attainable_error(
            10, Categorical((0.5, 0.5)), 0, Categorical((0.6, 0.4))
        ) == pytest.approx(0.2, abs=1e-12)

    def test_large_budget_hits_floor(self):
        theta0 = Categorical((0.5, 0.5))
        assert attainable_error(10, theta0, 5, Categorical((0.9, 0.1))) == 0.0
        # cross-check against the batch corrector on the same data
        assert batch_correct(CountVector((9, 1)), theta0, 5).error == 0.0

    def test_binomial_only(self):
        with pytest.raises(ValueError, match="binomial"):
            attainable_error(
                5, Categorical((0.4, 0.3, 0.3)), 1, Categorical((0.2, 0.4, 0.4))
            )


class TestBatchCorrect:
    def test_single_move(self):
        res = batch_correct(CountVector((3, 7)), Categorical((0.5, 0.5)), 1)
        assert res.corrected.counts == (4, 6)
        assert res.error == pytest.approx(0.2, abs=1e-12)
        assert moves((3, 7), res.corrected.counts) == 1

    def test_tie_breaks_lexicographically(self):
        res = batch_correct(CountVector((1, 2, 2)), Categorical((0.4, 0.3, 0.3)), 1)
        assert res.corrected.counts == (2, 1, 2)  # beats the tied (2, 2, 1)
        assert res.error == pytest.approx(0.2, abs=1e-12)

    def test_zero_budget_identity(self):
        rng = random.Random(31)
        for _ in range(20):
            k = rng.randint(2, 4)
            counts = tuple(rng.randint(0, 5) for _ in range(k))
            if sum(counts) == 0:
                counts = (1,) + counts[1:]
            res = batch_correct(CountVector(counts), rand_cat(rng, k), 0)
            assert res.corrected.counts == counts

    def test_rejects_bad_inputs(self):
        theta0 = Categorical((0.5, 0.5))
        with pytest.raises(ValueError):
            batch_correct(CountVector((1, 1)), theta0, -1)
        with pytest.raises(ValueError, match="no observations"):
            batch_correct(CountVector((0, 0)), theta0, 1)
        with pytest.raises(ValueError, match="mismatch"):
            batch_correct(CountVector((1, 1, 1)), theta0, 1)

    def test_matches_brute_search(self):
        rng = random.Random(33)
        for _ in range(60):
            k = rng.randint(2, 4)
            theta0 = rand_cat(rng, k)
            counts = tuple(rng.randint(0, 4) for _ in range(k))
            if sum(counts) == 0:
                counts = (1,) + counts[1:]
            budget = rng.randint(0, 4)
            res = batch_correct(CountVector(counts), theta0, budget)
            assert res.error == pytest.approx(
                brute_batch_error(counts, theta0, budget), abs=1e-12
            )

    def test_greedy_agrees_with_enumeration(self):
        # steepest unit moves against the exhaustive oracle, out to
        # counts of 6 and a budget of 5
        rng = random.Random(34)
        for _ in range(60):
            k = rng.randint(2, 4)
            theta0 = rand_cat(rng, k)
            counts = tuple(rng.randint(0, 6) for _ in range(k))
            if sum(counts) == 0:
                counts = (1,) + counts[1:]
            budget = rng.randint(0, 5)
            res = batch_correct(CountVector(counts), theta0, budget)
            assert res.error == pytest.approx(
                brute_batch_error(counts, theta0, budget), abs=1e-12
            )

    def test_error_monotone_in_budget(self):
        rng = random.Random(35)
        for _ in range(40):
            k = rng.randint(2, 4)
            theta0 = rand_cat(rng, k)
            n = rng.randint(1, 12)
            counts = [0] * k
            for _ in range(n):
                counts[rng.randrange(k)] += 1
            cv = CountVector(tuple(counts))
            errs = [batch_correct(cv, theta0, b).error for b in range(n + 2)]
            for lo, hi in zip(errs[1:], errs):
                assert lo <= hi + 1e-12

    def test_floor_reached_with_full_budget(self):
        rng = random.Random(36)
        for _ in range(40):
            k = rng.randint(2, 4)
            theta0 = rand_cat(rng, k)
            n = rng.randint(1, 10)
            counts = [0] * k
            for _ in range(n):
                counts[rng.randrange(k)] += 1
            cv = CountVector(tuple(counts))
            floor = e_min(n, theta0).error
            for b in (0, 1, n):
                res = batch_correct(cv, theta0, b)
                assert res.error >= floor - 1e-12
                assert moves(cv.counts, res.corrected.counts) <= b
                assert res.corrected.total == n
            assert batch_correct(cv, theta0, n).error == pytest.approx(floor, abs=1e-12)

    def test_binomial_matches_closed_form(self):
        # every count vector at n=10, budgets 0..3
        theta0 = Categorical((0.5, 0.5))
        for ones in range(11):
            cv = CountVector((10 - ones, ones))
            estimate = empirical_estimate(cv)
            for b in range(4):
                assert batch_correct(cv, theta0, b).error == pytest.approx(
                    attainable_error(10, theta0, b, estimate), abs=1e-12
                )
