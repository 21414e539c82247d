import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stat_helpers import sample_variance_se, uniform_central_moments

from corrlearn.bounds import (
    monte_carlo_report,
    project_sum,
    uniform_variance,
    var_bound_abs,
    var_bound_ratio_paper,
)
from corrlearn.core import Categorical, Seed


def brute_project(y, target, budget, upper=None):
    """Window enumeration with the documented tie rule (smaller wins)."""
    lo = max(0, y - budget)
    hi = y + budget if upper is None else min(y + budget, upper)
    return min(range(lo, hi + 1), key=lambda z: (abs(z - target), z))


class TestProjectSum:
    @pytest.mark.parametrize(
        "y,target,budget,expected",
        [(8, 5, 2, 6), (5, 5, 0, 5), (3, 4.6, 3, 5)],
    )
    def test_examples(self, y, target, budget, expected):
        assert project_sum(y, target, budget) == expected

    def test_matches_window_enumeration(self):
        rng = random.Random(17)
        for _ in range(2000):
            y = rng.randint(0, 40)
            budget = rng.randint(0, 10)
            target = rng.uniform(-2, 42)
            upper = rng.choice([None, 40])
            if upper is not None and max(0, y - budget) > upper:
                continue
            assert project_sum(y, target, budget, upper) == brute_project(
                y, target, budget, upper
            )

    def test_half_integer_tie_takes_the_smaller_value(self):
        assert project_sum(8, 4.5, 8) == 4
        assert project_sum(1, 4.5, 8) == 4

    def test_never_moves_beyond_budget(self):
        rng = random.Random(18)
        for _ in range(500):
            y = rng.randint(0, 30)
            budget = rng.randint(0, 6)
            z = project_sum(y, rng.uniform(0, 30), budget)
            assert abs(z - y) <= budget

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            project_sum(-1, 3.0, 1)
        with pytest.raises(ValueError):
            project_sum(1, 3.0, -1)


class TestAnalyticBounds:
    def test_absolute_bound_values(self):
        assert var_bound_abs(10, 1, 0) == 1.0
        assert var_bound_abs(10, 1, 3) == pytest.approx(math.exp(-1.8), rel=1e-12)
        assert var_bound_abs(10, 1, 3) == pytest.approx(0.16530, abs=1e-5)
        assert var_bound_abs(10, 2, 3) == pytest.approx(4 * math.exp(-0.45), rel=1e-12)
        assert var_bound_abs(10, 2, 3) == pytest.approx(2.5505, abs=1e-4)

    def test_ratio_bound_values(self):
        assert var_bound_ratio_paper(10, 1, 0) == 1.0
        assert var_bound_ratio_paper(10, 1, 3) == pytest.approx(math.exp(-1.8), rel=1e-12)
        assert var_bound_ratio_paper(10, 2, 3) == pytest.approx(
            (12 / 11) * math.exp(-0.45), rel=1e-12
        )
        assert var_bound_ratio_paper(10, 2, 3) == pytest.approx(0.69560, abs=1e-5)

    def test_absolute_bound_grows_with_alphabet(self):
        for n in (5, 10, 25):
            for b in (0, 1, 3, 5):
                values = [var_bound_abs(n, m, b) for m in (1, 2, 4)]
                assert values[0] < values[1] < values[2]

    def test_budget_outside_range_rejected(self):
        with pytest.raises(ValueError):
            var_bound_abs(10, 1, 11)
        with pytest.raises(ValueError):
            var_bound_abs(10, 1, -1)


class TestUniformVariance:
    @pytest.mark.parametrize(
        "m,stated,corrected",
        [(1, 1.0, 0.25), (2, 22 / 6, 8 / 12), (3, 8.0, 15 / 12)],
    )
    def test_both_constants(self, m, stated, corrected):
        uv = uniform_variance(m)
        assert uv.stated == pytest.approx(stated, rel=1e-12)
        assert uv.corrected == pytest.approx(corrected, rel=1e-12)

    def test_corrected_constant_is_the_true_variance(self):
        for m in range(1, 8):
            enumerated, _ = uniform_central_moments(m)
            assert uniform_variance(m).corrected == pytest.approx(
                enumerated, rel=1e-12
            )
            # the stated constant overstates it for every m
            assert uniform_variance(m).stated > enumerated


class TestMonteCarloReport:
    def test_zero_budget_leaves_variance_alone(self):
        report = monte_carlo_report(10, 2, 0, 20_000, Seed(101))
        assert report.empirical_var_corrected == report.empirical_var_original
        truth = 2 * (2 + 2) / (12 * 10)
        se = sample_variance_se(10, 2, 20_000)
        assert abs(report.empirical_var_original - truth) <= 3 * se

    def test_full_budget_pins_the_corrected_sum(self):
        # with b >= n*m every sum reaches the same rounding of the target,
        # including half-integer targets (n*m odd), so the variance is 0
        for n, m in ((10, 2), (8, 1), (5, 1)):
            report = monte_carlo_report(n, m, n * m, 2_000, Seed(5))
            assert report.empirical_var_corrected == 0.0

    def test_absolute_bound_holds_on_small_grid(self):
        for n in (5, 10):
            for m in (1, 2):
                for b in (0, 1, 3):
                    report = monte_carlo_report(n, m, b, 20_000, Seed(7).spawn(n, m, b))
                    assert report.empirical_var_corrected <= report.bound_abs

    def test_variance_nonincreasing_in_budget(self):
        for m in (1, 2):
            last = math.inf
            for b in range(0, 7):
                report = monte_carlo_report(10, m, b, 20_000, Seed(9))
                assert report.empirical_var_corrected <= last + 1e-15
                last = report.empirical_var_corrected

    def test_deterministic_per_seed(self):
        a = monte_carlo_report(10, 2, 3, 5_000, Seed(33))
        b = monte_carlo_report(10, 2, 3, 5_000, Seed(33))
        assert a == b
        c = monte_carlo_report(10, 2, 3, 5_000, Seed(34))
        assert c.empirical_var_corrected != a.empirical_var_corrected

    def test_matches_scalar_projection(self):
        # the vectorised path must agree with project_sum trial by trial
        import numpy as np

        n, m, b = 7, 2, 3
        seed = Seed(77)
        report = monte_carlo_report(n, m, b, 1_000, seed)
        rng = seed.rng()
        draws = rng.integers(0, m + 1, size=(1_000, n))
        y = draws.sum(axis=1)
        target = n * m / 2
        z = np.array([project_sum(int(v), target, b, upper=n * m) for v in y])
        assert float(np.var(z / n, ddof=1)) == pytest.approx(
            report.empirical_var_corrected, rel=1e-12
        )

    def test_nonuniform_source_accepted(self):
        dist = Categorical((0.5, 0.25, 0.25))
        report = monte_carlo_report(4, 2, 1, 5_000, Seed(13), dist=dist)
        # mean of dist is 0.75, so the projection target is n * 0.75
        assert report.empirical_var_corrected <= report.empirical_var_original

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_report(10, 1, 0, 999, Seed(1))

    def test_mismatched_distribution_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_report(10, 3, 0, 2_000, Seed(1), dist=Categorical((0.5, 0.5)))



def exact_moments(n, m, b, probs, mu):
    """Exact (variance, fourth central moment) of Y/n and of the projected
    sum over n, where Y sums n i.i.d. draws on {0..m} with pmf ``probs``:
    Y's pmf is the n-fold convolution, and ``project_sum`` maps its support
    toward n*mu."""
    pmf = np.array([1.0])
    for _ in range(n):
        pmf = np.convolve(pmf, probs)
    support = np.arange(n * m + 1)
    projected = np.array([project_sum(int(y), n * mu, b, upper=n * m) for y in support])
    moments = []
    for values in (support, projected):
        centred = values / n - pmf @ (values / n)
        moments.append((float(pmf @ centred**2), float(pmf @ centred**4)))
    return moments


def uniform_exact_moments(n, m, b):
    # the same target n*m/2 as monte_carlo_report, so half-integer ties agree
    return exact_moments(n, m, b, np.full(m + 1, 1 / (m + 1)), m / 2)


class TestExactOracle:
    TRIALS = 20_000

    @pytest.mark.parametrize("n,m,b,probs", [
        (5, 1, 1, None), (10, 2, 0, None), (10, 2, 3, None), (25, 4, 5, None),
        (8, 3, 12, None), (2, 2, 1, (0.5, 0.25, 0.25)), (4, 2, 1, (0.5, 0.25, 0.25)),
        (9, 2, 2, (0.5, 0.25, 0.25)),
        (12, 3, 3, (0.1, 0.2, 0.3, 0.4)),
    ])
    def test_monte_carlo_within_three_sigma_of_exact(self, n, m, b, probs):
        dist = None if probs is None else Categorical(probs)
        report = monte_carlo_report(n, m, b, self.TRIALS, Seed(2024).spawn(n, m, b), dist)
        if dist is None:
            exact = uniform_exact_moments(n, m, b)
        else:
            exact = exact_moments(n, m, b, np.array(dist.probs),
                                  float(sum(v * p for v, p in enumerate(dist.probs))))
        empirical = (report.empirical_var_original, report.empirical_var_corrected)
        t = self.TRIALS
        for value, (var, mu4) in zip(empirical, exact):
            # standard error of a sample variance from its fourth moment
            se = math.sqrt((mu4 - var**2 * (t - 3) / (t - 1)) / t)
            assert abs(value - var) <= 3 * se

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 30), m=st.sampled_from((1, 2, 3, 4, 6, 8)), data=st.data())
    def test_exact_corrected_variance_within_absolute_bound(self, n, m, data):
        b = data.draw(st.integers(0, min(n * m, 40)))
        (_, _), (var_corr, _) = uniform_exact_moments(n, m, b)
        assert var_corr <= var_bound_abs(n, m, b)
