import csv
import functools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stat_helpers import sample_variance_se, uniform_central_moments

from corrlearn.bounds import (
    CHUNK_ROWS,
    MAX_TRIALS,
    MIN_TRIALS,
    BoundReport,
    _check_grid,
    check_point,
    monte_carlo_report,
    project_sums,
    var_bound_abs,
    var_bound_ratio_paper,
)
from corrlearn.core import spawn
from corrlearn.dp import CeilingExceededError
from oracles import project_sum, traced_memory, uniform_sum_moments


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
    """The ratio bound's derivation takes (5M^2+M)/6 as the per-draw
    variance of Unif{0..M}; the true one is M(M+2)/12."""

    @pytest.mark.parametrize(
        "m,stated,corrected",
        [(1, 1.0, 0.25), (2, 22 / 6, 8 / 12), (3, 8.0, 15 / 12)],
    )
    def test_both_constants(self, m, stated, corrected):
        assert (5 * m * m + m) / 6 == pytest.approx(stated, rel=1e-12)
        assert m * (m + 2) / 12 == pytest.approx(corrected, rel=1e-12)
        assert uniform_central_moments(m)[0] == pytest.approx(corrected, rel=1e-12)

    def test_corrected_constant_is_the_true_variance(self):
        for m in range(1, 8):
            enumerated, _ = uniform_central_moments(m)
            assert m * (m + 2) / 12 == pytest.approx(enumerated, rel=1e-12)
            # the stated constant overstates it for every m
            assert (5 * m * m + m) / 6 > enumerated


class TestMonteCarloReport:
    def test_zero_budget_leaves_variance_alone(self):
        report = monte_carlo_report(10, 2, 0, 20_000, 101)
        assert report.empirical_var_corrected == report.empirical_var_original
        truth = 2 * (2 + 2) / (12 * 10)
        se = sample_variance_se(10, 2, 20_000)
        assert abs(report.empirical_var_original - truth) <= 3 * se

    def test_full_budget_pins_the_corrected_sum(self):
        # with b >= n*m every sum reaches the same rounding of the target,
        # including half-integer targets (n*m odd), so the variance is 0
        for n, m in ((10, 2), (8, 1), (5, 1)):
            report = monte_carlo_report(n, m, n * m, 2_000, 5)
            assert report.empirical_var_corrected == 0.0

    def test_absolute_bound_holds_on_small_grid(self):
        for n in (5, 10):
            for m in (1, 2):
                for b in (0, 1, 3):
                    report = monte_carlo_report(n, m, b, 20_000, spawn(7, [(n, m, b)])[0])
                    assert report.empirical_var_corrected <= report.bound_abs

    def test_variance_nonincreasing_in_budget(self):
        for m in (1, 2):
            last = math.inf
            for b in range(0, 7):
                report = monte_carlo_report(10, m, b, 20_000, 9)
                assert report.empirical_var_corrected <= last + 1e-15
                last = report.empirical_var_corrected

    def test_deterministic_per_seed(self):
        a = monte_carlo_report(10, 2, 3, 5_000, 33)
        b = monte_carlo_report(10, 2, 3, 5_000, 33)
        assert a == b
        c = monte_carlo_report(10, 2, 3, 5_000, 34)
        assert c.empirical_var_corrected != a.empirical_var_corrected

    def test_matches_scalar_projection(self):
        # the vectorised path must agree with project_sum trial by trial
        n, m, b = 7, 2, 3
        report = monte_carlo_report(n, m, b, 1_000, 77)
        rng = np.random.default_rng(77)
        draws = rng.integers(0, m + 1, size=(1_000, n))
        y = draws.sum(axis=1)
        target = n * m / 2
        z = np.array([project_sum(int(v), target, b, upper=n * m) for v in y])
        assert float(np.var(z / n, ddof=1)) == pytest.approx(
            report.empirical_var_corrected, rel=1e-12
        )

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_report(10, 1, 0, 999, 1)

    def test_draws_past_the_ceiling_rejected(self):
        # MAX_TRIALS * 25 draws: what the trials ceiling allows at n = 25
        check_point(25, 1, 0, MAX_TRIALS)
        check_point(MAX_TRIALS * 25 // MIN_TRIALS, 1, 0, MIN_TRIALS)
        with pytest.raises(CeilingExceededError, match="take 1300000000 draws"):
            check_point(26, 1, 0, MAX_TRIALS)
        with pytest.raises(CeilingExceededError, match="above the ceiling 1250000000"):
            check_point(MAX_TRIALS * 25 // MIN_TRIALS + 1, 1, 0, MIN_TRIALS)

    def test_traced_memory_does_not_grow_with_n(self):
        # a whole (trials, n) draw matrix would take 8n = 200 bytes a trial
        trials = 200_000
        _, peak = traced_memory(lambda: monte_carlo_report(25, 4, 3, trials, 7),
                                lambda: monte_carlo_report(25, 4, 3, MIN_TRIALS, 7))
        assert peak < 64 * trials


class TestDrawStreamAndProjection:
    """The two shortcuts of the kernel: 32-bit draws and the clipped move."""

    @pytest.mark.parametrize("m", [1, 2, 4, 2**31, 2**32 - 1])
    def test_uint32_draws_equal_the_int64_stream(self, m):
        # 2**31 rejects about half of its 32-bit words; the odd splits cut
        # the stream between calls at varying offsets
        narrow, wide = np.random.default_rng(5), np.random.default_rng(5)
        for size in [(3, 7), (1, 1), (5, 3), (8192, 2), (1, 5), (2, 1), (13, 11)]:
            drawn = narrow.integers(0, m + 1, size=size, dtype=np.uint32)
            assert np.array_equal(drawn, wide.integers(0, m + 1, size=size))
        assert narrow.integers(0, 2**40) == wide.integers(0, 2**40)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 1), (5, 2), (4, 3), (7, 4), (3, 9)])
    def test_moves_equal_the_scalar_projection_at_every_sum(self, n, m):
        y = np.arange(n * m + 1, dtype=np.int64)
        for b in sorted({0, 1, 2, (n * m) // 2, (n * m + 1) // 2, n * m}):
            expected = [project_sum(v, n * m / 2, b, upper=n * m) for v in y.tolist()]
            assert project_sums(y, n, m, b).tolist() == expected


def one_shot_report(n, m, b, trials, seed):
    """``monte_carlo_report`` drawing the whole (trials, n) matrix at once
    and projecting through both clipped candidates: the reference the
    blocked kernel must match bit for bit."""
    _check_grid(n, m, b)
    y = np.random.default_rng(seed).integers(0, m + 1, size=(trials, n)).sum(axis=1)
    target = n * m / 2.0
    lo = np.maximum(y - b, 0)
    hi = np.minimum(y + b, n * m)
    z_f = np.clip(math.floor(target), lo, hi)
    z_c = np.clip(math.ceil(target), lo, hi)
    y_tilde = np.where(np.abs(z_c - target) < np.abs(z_f - target), z_c, z_f)
    var_orig = float(np.var(y, ddof=1)) / (n * n)
    var_corr = float(np.var(y_tilde, ddof=1)) / (n * n)
    return BoundReport(
        n=n, m=m, b=b, trials=trials,
        bound_abs=var_bound_abs(n, m, b),
        bound_ratio_paper=var_bound_ratio_paper(n, m, b),
        empirical_var_original=var_orig,
        empirical_var_corrected=var_corr,
        empirical_ratio=var_corr / var_orig if var_orig > 0 else math.nan,
    )


class TestBlockedKernel:
    """The blocked draws and one-clip projection against the one-shot
    reference, on trial counts either side of the block edges. Odd n*m
    gives a half-integer target, where the tie rule decides."""

    @pytest.mark.parametrize("trials", [
        MIN_TRIALS, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 17,
    ])
    def test_matches_one_shot_reference(self, trials):
        differ = []
        for n in (1, 3, 7, 25):
            for m in (1, 2, 3, 4):
                for b in sorted({0, 1, n * m // 2, n * m}):
                    seed = spawn(11, [(trials, n, m, b)])[0]
                    got = monte_carlo_report(n, m, b, trials, seed)
                    if repr(got) != repr(one_shot_report(n, m, b, trials, seed)):
                        differ.append((n, m, b))
        assert differ == []

    def test_matches_one_shot_reference_at_large_n(self):
        # 199-row blocks of 1025 draws: an odd number of values per block
        n, m, b = 1025, 3, 40
        seed = 12
        assert repr(monte_carlo_report(n, m, b, MIN_TRIALS, seed)) == repr(
            one_shot_report(n, m, b, MIN_TRIALS, seed))

    def test_block_memory_does_not_grow_with_n(self):
        # one block of all 1000 rows at n = 5000 would take 40 MB
        report = functools.partial(monte_carlo_report, 5_000, 1, 0, MIN_TRIALS, 3)
        _, peak = traced_memory(report, report)
        assert peak < 4_000_000


def sum_pmf(n, probs):
    """Exact pmf of Y, the sum of n i.i.d. draws with pmf ``probs``: the
    n-fold convolution."""
    pmf = np.array([1.0])
    for _ in range(n):
        pmf = np.convolve(pmf, probs)
    return pmf


def central_moments(pmf, values):
    """(variance, fourth central moment) of ``values`` under ``pmf``."""
    centred = values - pmf @ values
    return float(pmf @ centred**2), float(pmf @ centred**4)


def projected_support(n, m, b, mu):
    """``project_sum`` of each value 0..n*m of Y toward n*mu."""
    return np.array([project_sum(y, n * mu, b, upper=n * m) for y in range(n * m + 1)])


class TestExactOracle:
    TRIALS = 20_000

    @pytest.mark.parametrize("n,m,b", [
        (5, 1, 1), (10, 2, 0), (10, 2, 3), (25, 4, 5), (8, 3, 12),
    ])
    def test_monte_carlo_within_three_sigma_of_exact(self, n, m, b):
        report = monte_carlo_report(n, m, b, self.TRIALS, spawn(2024, [(n, m, b)])[0])
        exact = uniform_sum_moments(n, m, b)
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
        (_, _), (var_corr, _) = uniform_sum_moments(n, m, b)
        assert var_corr <= var_bound_abs(n, m, b)

    def test_exact_ratio_within_the_paper_ratio_bound(self):
        # all 6,460 points with n <= 40, m in {1,2,3,4,6,8}, b <= min(nm, 30).
        # The ratio meets the bound only at b=0, m=1, where nothing moves and
        # both are 1; for b >= 1 it stays below 0.775 of the bound (the
        # largest share, 0.7743, is at n=40, m=8, b=1).
        largest_moved_share = 0.0
        for n in range(1, 41):
            for m in (1, 2, 3, 4, 6, 8):
                pmf = sum_pmf(n, np.full(m + 1, 1 / (m + 1)))
                var_orig, _ = central_moments(pmf, np.arange(n * m + 1) / n)
                for b in range(min(n * m, 30) + 1):
                    var_corr, _ = central_moments(pmf, projected_support(n, m, b, m / 2) / n)
                    bound = var_bound_ratio_paper(n, m, b)
                    assert var_corr / var_orig <= bound, (n, m, b)
                    if b >= 1:
                        largest_moved_share = max(largest_moved_share,
                                                  var_corr / var_orig / bound)
        assert largest_moved_share < 0.775


GOLDEN = Path(__file__).parent / "golden"


def golden_rows(name):
    """The rows of a ``bounds`` golden file, CSV or JSON."""
    text = (GOLDEN / f"{name}.txt").read_text()
    return json.loads(text) if name.endswith("_json") else list(csv.DictReader(text.splitlines()))


# bounds_huge_m is left out: at m near 2**32 the exact pmf has ~10**10 sums
@pytest.mark.parametrize("name", ["bounds_small", "bounds_chunked", "bounds_json"])
def test_golden_variances_within_four_sigma_of_exact(name):
    # the worst of the 20 distinct rows is 2.44 sigma, var_corr at (25, 1, 3);
    # pinned sums read exactly 0, as their exact moments are
    for row in golden_rows(name):
        n, m, b, t = (int(row[column]) for column in ("N", "M", "B", "trials"))
        exact = uniform_sum_moments(n, m, b)
        for column, (var, mu4) in zip(("var_orig", "var_corr"), exact):
            # squared standard error of a sample variance, from its fourth moment
            se2 = (mu4 - var**2 * Fraction(t - 3, t - 1)) / t
            assert (Fraction(float(row[column])) - var) ** 2 <= 16 * se2, (name, row, column)
