import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlearn import core
from corrlearn.core import (
    Categorical,
    CountVector,
    empirical_estimate,
    l1_error,
    sample_sequence,
    spawn,
)
from oracles import traced_memory


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
        cv = CountVector(counts)
        assert empirical_estimate(cv).probs == pytest.approx(expected, abs=1e-15)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError, match="no observations"):
            empirical_estimate(CountVector((0, 0)))


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
        a = sample_sequence(dist, 200, [99])
        b = sample_sequence(dist, 200, [99])
        assert a.shape == (1, 200)
        assert np.array_equal(a, b)
        assert not np.array_equal(sample_sequence(dist, 200, [100]), a)

    def test_degenerate_distribution(self):
        streams = sample_sequence(Categorical((1.0, 0.0)), 4, [5])
        assert streams.tolist() == [[0, 0, 0, 0]]

    def test_law_of_large_numbers(self):
        # SE of the frequency is ~0.0016 at this size; 0.01 is > 3 sigma.
        (row,) = sample_sequence(Categorical((0.5, 0.5)), 100_000, [42])
        assert abs((row == 0).mean() - 0.5) < 0.01

    def test_zero_draws_rejected(self):
        with pytest.raises(ValueError):
            sample_sequence(Categorical((0.5, 0.5)), 0, [1])

    def test_values_in_alphabet(self):
        streams = sample_sequence(Categorical((0.2, 0.5, 0.3)), 500, [7])
        assert ((0 <= streams) & (streams < 3)).all()

    def test_each_row_is_its_own_seeds_draw(self):
        theta = Categorical((0.4, 0.3, 0.3))
        for n in (1, 5, 25):
            seeds = spawn(7, [(n, t) for t in range(30)])
            streams = sample_sequence(theta, n, seeds)
            assert streams.shape == (30, n)
            for t, seed in enumerate(seeds):
                assert np.array_equal(streams[t], sample_sequence(theta, n, [seed])[0])

    def test_pinned_draws(self):
        # Rows keyed as the variance experiment keys them; a change here
        # moves every experiment's output.
        streams = sample_sequence(
            Categorical((0.4, 0.3, 0.3)), 5, spawn(7, [(5, t) for t in range(4)]))
        assert streams.tolist() == [
            [1, 2, 2, 2, 0], [1, 0, 2, 0, 0], [0, 2, 1, 1, 0], [0, 0, 2, 0, 0]]

    def test_no_seeds_give_no_rows(self):
        streams = sample_sequence(Categorical((0.5, 0.5)), 3, [])
        assert streams.shape == (0, 3)

    def test_peak_memory_per_draw(self):
        # One column of PCG64 states is live at a time beside the 8 B per
        # draw of the result, so the peak stays below 16 B per draw.
        theta = Categorical((0.4, 0.3, 0.3))
        seeds = spawn(7, [(t,) for t in range(20_000)])
        _, peak = traced_memory(lambda: sample_sequence(theta, 100, seeds),
                                lambda: sample_sequence(theta, 100, seeds[:100]))
        assert peak <= 16 * 20_000 * 100


class TestCountsFromSequence:
    """The per-row tally of sampled streams, as the experiments take it."""

    def test_composition_with_sampling_sums_to_n(self):
        rng = random.Random(3)
        for _ in range(30):
            k = rng.randint(2, 4)
            n = rng.randint(1, 40)
            raw = [rng.random() + 0.05 for _ in range(k)]
            dist = Categorical(tuple(x / math.fsum(raw) for x in raw))
            (row,) = sample_sequence(dist, n, [rng.randrange(2**32)])
            counts = np.bincount(row, minlength=k)
            assert len(counts) == k
            assert CountVector(tuple(counts)).total == n


class TestSeed:
    """Seeds are plain integers; ``spawn`` derives child seeds as uint64."""

    def test_spawn_is_deterministic_and_distinct(self):
        children = spawn(123, [(i,) for i in range(50)])
        assert children.dtype == np.uint64
        assert np.array_equal(children, spawn(123, [(i,) for i in range(50)]))
        assert spawn(123, [(4,)])[0] == children[4]
        assert len(set(children.tolist())) == 50

    def test_rng_streams_reproduce(self):
        # ``bounds`` draws from default_rng(seed), numpy's SeedSequence ->
        # PCG64 -> Generator stream for that seed, at roots of 1 and 2 words
        for seed in (0, 7, 2**32 + 5, 2**64 - 1):
            a = np.random.default_rng(seed)
            b = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
            assert np.array_equal(a.integers(0, 5, size=(3, 7)), b.integers(0, 5, size=(3, 7)))
            assert np.array_equal(a.random(5), b.random(5))

    def test_rejects_out_of_range(self):
        # checked before numpy sees the value: numpy 1.x wraps a negative
        # int with a warning, and numpy 2 raises OverflowError, no ValueError
        for root in (-1, 2**64):
            for keys in ([(0,)], []):
                with pytest.raises(ValueError, match=r"integers in \[0, 2\*\*64\)"):
                    spawn(root, keys)


EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
# Keys mix entries below and above 2**32, so numpy's SeedSequence pool
# takes one- and two-word entropy.
KEY_ENTRIES = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))


def numpy_spawn(value, key):
    return int(np.random.SeedSequence([value, *key]).generate_state(1, np.uint64)[0])


def numpy_uniforms(value, n):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(value))).random(n)


class TestStreamKernel:
    """The vectorised SeedSequence -> PCG64 -> random kernel against numpy."""

    @settings(max_examples=200, deadline=None)
    @given(
        value=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
        keys=st.integers(1, 3).flatmap(
            lambda m: st.lists(st.tuples(*[KEY_ENTRIES] * m), min_size=1, max_size=4)),
    )
    def test_spawn_matches_seed_sequence(self, value, keys):
        expected = [numpy_spawn(value, key) for key in keys]
        assert spawn(value, keys).tolist() == expected
        assert spawn(value, keys[:1]).tolist() == expected[:1]

    @pytest.mark.parametrize("value", EDGE_SEEDS)
    @pytest.mark.parametrize("key", [(), (0,), (2**32 - 1, 2**32), (5, 2**64 - 1, 7)])
    def test_spawn_at_edge_seeds(self, value, key):
        assert spawn(value, [key]).tolist() == [numpy_spawn(value, key)]

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_uniforms_at_edge_seeds(self, n):
        uniforms = np.column_stack(list(core._uniforms(np.array(EDGE_SEEDS, dtype=np.uint64), n)))
        assert np.array_equal(uniforms, [numpy_uniforms(v, n) for v in EDGE_SEEDS])

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
           n=st.integers(1, 300))
    def test_uniforms_match_pcg64(self, values, n):
        uniforms = np.column_stack(list(core._uniforms(np.array(values, dtype=np.uint64), n)))
        assert np.array_equal(uniforms, [numpy_uniforms(v, n) for v in values])

    def test_long_row(self):
        values = np.array([2**64 - 1], dtype=np.uint64)
        (row,) = np.column_stack(list(core._uniforms(values, 100_000)))
        assert np.array_equal(row, numpy_uniforms(2**64 - 1, 100_000))

    def test_no_per_seed_generator(self, monkeypatch):
        # Streams and batch spawns must not fall back to one numpy
        # SeedSequence/PCG64 per seed, and spawning calls no np.unique.
        def refuse(*args, **kwargs):
            raise AssertionError("per-seed numpy generator built")

        for name in ("SeedSequence", "PCG64"):
            monkeypatch.setattr(core.np.random, name, refuse)
        monkeypatch.setattr(core.np, "unique", refuse)
        seeds = spawn(7, [(25, t) for t in range(2000)])
        assert spawn(7, [(25, 0)])[0] == seeds[0]
        streams = sample_sequence(Categorical((0.4, 0.3, 0.3)), 25, seeds)
        assert streams.shape == (2000, 25)

    def test_bad_keys_rejected(self):
        with pytest.raises(TypeError):
            spawn(1, [(1.5,)])
        with pytest.raises(TypeError):
            spawn(1.5, [(1,)])
        with pytest.raises(ValueError, match=r"integers in \[0, 2\*\*64\)"):
            spawn(1, [(-1,)])
        with pytest.raises(ValueError, match=r"integers in \[0, 2\*\*64\)"):
            spawn(1, [(0,), (2**64,)])
        with pytest.raises(ValueError):
            spawn(1, [(1,), (1, 2)])

    def test_no_keys_give_no_seeds(self):
        seeds = spawn(1, [])
        assert (seeds.shape, seeds.dtype) == ((0,), np.uint64)


class TestCountVector:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CountVector((-1, 2))

    def test_rejects_non_integer_counts(self):
        for counts in ((1.5, 2), ("3", 1)):
            with pytest.raises(TypeError):
                CountVector(counts)
        assert CountVector((np.int64(3), np.uintp(1))).counts == (3, 1)

