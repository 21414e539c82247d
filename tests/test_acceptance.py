"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Seeds are pinned; every check is deterministic.

Criterion 6's sample-size clause is expected to FAIL: with the optimal
teacher, the corrected-estimate variance is provably non-monotone in the
number of observations once the budget saturates (exact values in
`notes` in the repository history and in the assertion message). The
budget clause of the same criterion holds everywhere. The test states
the criterion as written and reports the violation rather than hiding it.
"""

import itertools
import time

import numpy as np
from stat_helpers import sample_variance_se

from corrlearn import cli
from corrlearn.batch import attainable_error, e_min
from corrlearn.bounds import monte_carlo_report
from corrlearn.core import Categorical, CountVector, empirical_estimate, l1_error, spawn
from corrlearn.dp import solve
from corrlearn.experiments import (
    ExperimentConfig,
    run_bio,
    run_multinomial,
    run_variance_sweep,
)
from corrlearn.mdp import MdpSpec, l1_terminal_reward
from corrlearn.teacher import replay_all
from oracles import (
    BinomialThresholdPolicy, brute_force_value, expected_online_error,
)

ACCEPT_SEED = 20260811


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num} [{'PASS' if ok else 'FAIL'}] {detail}")


def l1_spec(theta: Categorical, n: int) -> MdpSpec:
    return MdpSpec(n=n, model=theta, reward=l1_terminal_reward(theta))


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def test_criterion_1_e_min_exactness():
    theta = Categorical((0.4, 0.3, 0.3))
    elapsed = min(_timed(lambda: e_min(5, theta))[1] for _ in range(5))
    err, achiever = e_min(5, theta)
    estimate = empirical_estimate(achiever).probs
    ok = (
        err == 0.2  # exact equality, no tolerance
        and estimate in ((0.4, 0.4, 0.2), (0.4, 0.2, 0.4))
        and elapsed < 1e-3
    )
    report(1, ok, f"e_min(5)={err} achiever={achiever.counts} in {elapsed * 1e6:.0f}us")
    assert err == 0.2
    assert estimate in ((0.4, 0.4, 0.2), (0.4, 0.2, 0.4))
    assert elapsed < 1e-3


def test_criterion_2_binomial_online_optimality():
    theta = Categorical((0.5, 0.5))
    n = 10
    start = time.perf_counter()
    worst = 0.0
    streams = np.array(list(itertools.product(range(2), repeat=n)))
    originals = [CountVector((n - ones, ones)) for ones in streams.sum(axis=1).tolist()]
    for budget in (0, 1, 2):
        policy = solve(l1_spec(theta, n), (budget,))
        _, counts, _ = replay_all(streams, 2, policy, budget)
        for original, final in zip(originals, counts.tolist()):
            floor = attainable_error(n, theta, budget, empirical_estimate(original))
            err = l1_error(empirical_estimate(CountVector(tuple(final))), theta)
            worst = max(worst, abs(err - floor))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 10
    report(2, ok, f"3x1024 sequences, max |online - attainable| = {worst:.2e}, "
                  f"{elapsed:.1f}s")
    assert worst < 1e-12
    assert elapsed < 10


def test_criterion_3_oracle_equivalence():
    thetas = {
        2: (Categorical((0.5, 0.5)), Categorical((0.7, 0.3)), Categorical((0.9, 0.1))),
        3: (Categorical((1 / 3,) * 3), Categorical((0.4, 0.3, 0.3)),
            Categorical((0.8, 0.1, 0.1))),
    }
    start = time.perf_counter()
    worst = 0.0
    cells = 0
    for k in (2, 3):
        for n in range(1, 6):
            for budget in (0, 1, 2):
                for theta in thetas[k]:
                    spec = l1_spec(theta, n)
                    root = solve(spec, (budget,)).root_values[budget]
                    diff = abs(root - brute_force_value(spec, budget))
                    worst = max(worst, diff)
                    cells += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 60
    report(3, ok, f"{cells} (k, n, budget, theta) cells, max diff {worst:.2e}, "
                  f"{elapsed:.1f}s")
    assert worst < 1e-12
    assert elapsed < 60


def test_criterion_4_closed_form_policy_value():
    theta = Categorical((0.5, 0.5))
    start = time.perf_counter()
    policy = BinomialThresholdPolicy(theta, 10)
    expected = expected_online_error(policy, theta, 10, 1)
    spec = l1_spec(theta, 10)
    diff = abs(-expected - solve(spec, (1,)).root_values[1])
    elapsed = time.perf_counter() - start
    ok = diff < 1e-12 and elapsed < 5
    report(4, ok, f"|closed-form E[err] - solver root| = {diff:.2e}, {elapsed:.1f}s")
    assert diff < 1e-12
    assert elapsed < 5


def test_criterion_5_absolute_variance_bound():
    trials = 100_000
    start = time.perf_counter()
    bound_violations = []
    se_violations = []
    for n in (5, 10, 25):
        for m in (1, 2, 4):
            for b in (0, 1, 3, 5):
                rep = monte_carlo_report(n, m, b, trials, spawn(ACCEPT_SEED, [(n, m, b)])[0])
                if rep.empirical_var_corrected > rep.bound_abs:
                    bound_violations.append((n, m, b))
                truth = m * (m + 2) / (12 * n)
                if abs(rep.empirical_var_original - truth) > 3 * sample_variance_se(
                    n, m, trials
                ):
                    se_violations.append((n, m, b))
    elapsed = time.perf_counter() - start
    ok = not bound_violations and not se_violations and elapsed < 60
    report(5, ok, f"36 grid points x {trials} trials: bound violations "
                  f"{bound_violations}, raw-variance 3-sigma misses {se_violations}, "
                  f"{elapsed:.1f}s")
    assert bound_violations == []
    assert se_violations == []
    assert elapsed < 60


def test_criterion_6_variance_trend():
    """States the criterion as written; the sample-size clause fails.

    Exact forward propagation (no sampling) puts the first-coordinate
    variance at 0.000798 (n=5) vs 0.002945 (n=10) for budget 2: once the
    budget saturates the short horizon, the estimate is pinned near an
    optimal rounding and the variance RISES with n before the 1/n decline
    takes over again. No variance functional of the optimal teacher's
    estimate is monotone on this grid, so the clause cannot hold.
    """
    start = time.perf_counter()
    rows = run_variance_sweep(ExperimentConfig(
        experiment="variance", seed=ACCEPT_SEED,
        n_values=(5, 10, 15, 20, 25), budgets=(0, 1, 2), trials=2000,
    ))
    elapsed = time.perf_counter() - start
    cells = {(r["n"], r["budget"]): r["var_first"] for r in rows}
    n_grid = (5, 10, 15, 20, 25)

    budget_ok = all(
        cells[(n, 2)] < cells[(n, 1)] < cells[(n, 0)] for n in n_grid
    )
    n_violations = [
        (b, lo_n, hi_n, cells[(lo_n, b)], cells[(hi_n, b)])
        for b in (0, 1, 2)
        for lo_n, hi_n in zip(n_grid, n_grid[1:])
        if not cells[(hi_n, b)] < cells[(lo_n, b)]
    ]
    ok = budget_ok and not n_violations and elapsed < 120
    report(6, ok, f"strict decrease in budget: {budget_ok}; "
                  f"decrease in n violated at {[(v[0], v[1], v[2]) for v in n_violations]}; "
                  f"{elapsed:.1f}s")
    assert budget_ok
    assert elapsed < 120
    assert not n_violations, (
        "corrected-estimate variance is not monotone in the sample size at "
        f"saturating budgets; violations (budget, n_low, n_high, var_low, var_high): "
        f"{n_violations}. This is a property of the optimal teacher itself "
        "(exact, sampling-free values confirm it), not of this implementation."
    )


def test_criterion_7_multinomial_mean_improvement():
    start = time.perf_counter()
    records = run_multinomial(ExperimentConfig(
        experiment="multinomial", seed=ACCEPT_SEED, trials=50,
        n_values=(5,), budgets=(1,),
    ))
    elapsed = time.perf_counter() - start
    mean_orig = sum(r["error_original"] for r in records) / len(records)
    mean_online = sum(r["error_online"] for r in records) / len(records)
    batch_ok = all(r["error_online"] >= r["error_batch"] - 1e-12 for r in records)
    ok = mean_online <= mean_orig and batch_ok and elapsed < 10
    report(7, ok, f"mean error {mean_orig:.4f} -> {mean_online:.4f} over 50 runs; "
                  f"online >= batch per record: {batch_ok}; {elapsed:.1f}s")
    assert len(records) == 50
    assert mean_online <= mean_orig
    assert batch_ok
    assert elapsed < 10


def test_criterion_8_bio_misclassification():
    start = time.perf_counter()
    rows = run_bio(ExperimentConfig(
        experiment="bio", seed=ACCEPT_SEED, trials=1000,
        n_values=(10,), budgets=(0, 1, 2),
    ))
    elapsed = time.perf_counter() - start
    rate = {r["budget"]: r["misclassification_rate"] for r in rows}
    ok = rate[0] > rate[1] >= rate[2] and rate[2] <= 0.02 and elapsed < 300
    report(8, ok, f"rates {rate} over 1000 trials, {elapsed:.1f}s")
    assert rate[0] > rate[1] >= rate[2]
    assert rate[2] <= 0.02
    assert elapsed < 300


def test_criterion_9_determinism(tmp_path):
    commands = {
        "multinomial": ["--trials", "6"],
        "binomial": ["--trials", "6"],
        "variance": ["--n-values", "5,6", "--budgets", "0,1", "--trials", "60"],
        "bounds": ["--n-values", "5", "--m-values", "1", "--budgets", "0,1",
                   "--trials", "1000"],
        "bio": ["--n-values", "6", "--budgets", "0,1", "--trials", "40"],
    }
    mismatched = []
    for name, extra in commands.items():
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}.csv"
            code = cli.main([name, "--seed", str(ACCEPT_SEED), *extra,
                             "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            mismatched.append(name)
    ok = not mismatched
    report(9, ok, f"all five experiment subcommands byte-identical on rerun"
                  f"{'' if ok else f'; mismatches: {mismatched}'}")
    assert mismatched == []
