import math
import random

import numpy as np
import pytest

from corrlearn.core import (
    Categorical,
    CountVector,
    Seed,
    empirical_estimate,
    l1_error,
    sample_sequence,
)


class TestCategorical:
    def test_basic_construction(self):
        c = Categorical((0.4, 0.3, 0.3))
        assert c.k == 3
        assert math.isclose(sum(c.probs), 1.0, abs_tol=1e-15)

    def test_normalises_within_tolerance(self):
        third = 1.0 / 3.0
        c = Categorical((third, third, third))  # sums to 1 - 1ulp
        assert math.fsum(c.probs) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_sum_deviation(self):
        with pytest.raises(ValueError, match="sum"):
            Categorical((0.5, 0.5 + 1e-9))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            Categorical((1.1, -0.1))

    def test_rejects_single_outcome(self):
        with pytest.raises(ValueError):
            Categorical((1.0,))


class TestEmpiricalEstimate:
    @pytest.mark.parametrize(
        "counts,expected",
        [
            ((2, 3), (0.4, 0.6)),
            ((1, 2, 2), (0.2, 0.4, 0.4)),
            ((5, 0, 0), (1.0, 0.0, 0.0)),
        ],
    )
    def test_examples(self, counts, expected):
        cv = CountVector(counts, sum(counts))
        assert empirical_estimate(cv).probs == pytest.approx(expected, abs=1e-15)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError, match="no observations"):
            empirical_estimate(CountVector((0, 0), 5))


class TestL1Error:
    def test_examples(self):
        assert l1_error(Categorical((0.4, 0.6)), Categorical((0.5, 0.5))) == pytest.approx(0.2)
        assert l1_error(
            Categorical((0.2, 0.4, 0.4)), Categorical((0.4, 0.3, 0.3))
        ) == pytest.approx(0.4)

    def test_zero_on_equal(self):
        rng = random.Random(11)
        for _ in range(20):
            k = rng.randint(2, 5)
            raw = [rng.random() + 0.01 for _ in range(k)]
            p = Categorical(tuple(x / math.fsum(raw) for x in raw))
            assert l1_error(p, p) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            l1_error(Categorical((0.5, 0.5)), Categorical((0.4, 0.3, 0.3)))

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(404)

        def rand_cat(k):
            raw = [rng.random() + 1e-3 for _ in range(k)]
            return Categorical(tuple(x / math.fsum(raw) for x in raw))

        for _ in range(1000):
            k = rng.randint(2, 5)
            a, b, c = rand_cat(k), rand_cat(k), rand_cat(k)
            assert l1_error(a, b) == pytest.approx(l1_error(b, a), abs=1e-15)
            assert l1_error(a, c) <= l1_error(a, b) + l1_error(b, c) + 1e-12


class TestSampleSequence:
    def test_deterministic_per_seed(self):
        dist = Categorical((0.4, 0.3, 0.3))
        a = sample_sequence(dist, 200, [Seed(99)])
        b = sample_sequence(dist, 200, [Seed(99)])
        assert a.shape == (1, 200)
        assert np.array_equal(a, b)
        assert not np.array_equal(sample_sequence(dist, 200, [Seed(100)]), a)

    def test_degenerate_distribution(self):
        streams = sample_sequence(Categorical((1.0, 0.0)), 4, [Seed(5)])
        assert streams.tolist() == [[0, 0, 0, 0]]

    def test_law_of_large_numbers(self):
        # SE of the frequency is ~0.0016 at this size; 0.01 is > 3 sigma.
        (row,) = sample_sequence(Categorical((0.5, 0.5)), 100_000, [Seed(42)])
        assert abs((row == 0).mean() - 0.5) < 0.01

    def test_zero_draws_rejected(self):
        with pytest.raises(ValueError):
            sample_sequence(Categorical((0.5, 0.5)), 0, [Seed(1)])

    def test_values_in_alphabet(self):
        streams = sample_sequence(Categorical((0.2, 0.5, 0.3)), 500, [Seed(7)])
        assert ((0 <= streams) & (streams < 3)).all()

    def test_each_row_is_its_own_seeds_draw(self):
        theta = Categorical((0.4, 0.3, 0.3))
        for n in (1, 5, 25):
            seeds = [Seed(7).spawn(n, t) for t in range(30)]
            streams = sample_sequence(theta, n, seeds)
            assert streams.shape == (30, n)
            for t, seed in enumerate(seeds):
                assert np.array_equal(streams[t], sample_sequence(theta, n, [seed])[0])

    def test_pinned_draws(self):
        # Rows keyed as the variance experiment keys them; a change here
        # moves every experiment's output.
        streams = sample_sequence(
            Categorical((0.4, 0.3, 0.3)), 5, [Seed(7).spawn(5, t) for t in range(4)])
        assert streams.tolist() == [
            [1, 2, 2, 2, 0], [1, 0, 2, 0, 0], [0, 2, 1, 1, 0], [0, 0, 2, 0, 0]]

    def test_no_seeds_give_no_rows(self):
        streams = sample_sequence(Categorical((0.5, 0.5)), 3, [])
        assert streams.shape == (0, 3)


class TestCountsFromSequence:
    """The per-row tally of sampled streams, as the experiments take it."""

    def test_composition_with_sampling_sums_to_n(self):
        rng = random.Random(3)
        for _ in range(30):
            k = rng.randint(2, 4)
            n = rng.randint(1, 40)
            raw = [rng.random() + 0.05 for _ in range(k)]
            dist = Categorical(tuple(x / math.fsum(raw) for x in raw))
            (row,) = sample_sequence(dist, n, [Seed(rng.randrange(2**32))])
            counts = np.bincount(row, minlength=k)
            assert len(counts) == k
            assert CountVector(tuple(counts), n).total == n


class TestSeed:
    def test_spawn_is_deterministic_and_distinct(self):
        s = Seed(123)
        assert s.spawn(4) == s.spawn(4)
        children = {s.spawn(i).value for i in range(50)}
        assert len(children) == 50

    def test_rng_streams_reproduce(self):
        a = Seed(7).rng().random(5)
        b = Seed(7).rng().random(5)
        assert np.array_equal(a, b)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Seed(-1)
        with pytest.raises(ValueError):
            Seed(2**64)


class TestCountVector:
    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            CountVector((3, 3), 5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CountVector((-1, 2), 5)

