import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corrlearn import bounds, cli, dp, experiments, teacher
from corrlearn.batch import BatchResult, e_min
from corrlearn.core import Categorical, CountVector, sample_sequence, spawn
from corrlearn.dp import DEFAULT_STATE_CEILING, Policy
from corrlearn.experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    InvariantViolationError,
    check_records,
    format_csv,
    run_and_format,
    run_binomial,
    run_bio,
    run_bounds,
    run_multinomial,
    run_variance_sweep,
)
from corrlearn.likelihood import default_candidates
from corrlearn.mdp import state_count_bound
from corrlearn.teacher import per_distinct_counts
from oracles import traced_memory
from test_likelihood import write_candidates


MULTINOMIAL_HEADER = (
    "experiment,seed,trial,budget,error_original,error_online,error_batch,budget_spent"
)
BINOMIAL_HEADER = (
    "experiment,seed,trial,budget,error_original,error_online,error_attainable,"
    "error_batch,budget_spent"
)
# every (experiment, parameter it does not read) pair
FOREIGN_PARAMETERS = [
    *[(name, field) for name in ("multinomial", "binomial", "variance")
      for field in ("m_values", "candidates", "theta0_label")],
    *[("bounds", field) for field in ("theta0", "candidates", "theta0_label")],
    ("bio", "m_values"),
    ("bio", "theta0"),
]
# flags that keep each experiment's run short
SMALL_RUN = {
    "multinomial": ["--trials", "2", "--n-values", "3", "--budgets", "0"],
    "binomial": ["--trials", "2", "--n-values", "3", "--budgets", "0"],
    "variance": ["--trials", "2", "--n-values", "3", "--budgets", "0"],
    "bounds": ["--trials", "2", "--n-values", "3", "--m-values", "1", "--budgets", "0"],
    "bio": ["--trials", "2", "--n-values", "3", "--budgets", "0"],
}


def config(**kwargs):
    kwargs.setdefault("experiment", "multinomial")
    kwargs.setdefault("seed", 4242)
    return ExperimentConfig(**kwargs)


def as_dicts(table):
    """A runner's ``(columns, rows)`` as one dict per row, keyed by column."""
    columns, rows = table
    return [dict(zip(columns, row)) for row in rows]


class TestConfig:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            config(experiment="quantum")

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            config(fmt="xml")

    def test_missing_candidate_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            config(experiment="bio", candidates=str(tmp_path / "nope.json"))

    def test_file_round_trip_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "experiment": "multinomial", "seed": 1, "trials": 5,
            "budgets": [0, 1],
        }))
        cfg = ExperimentConfig.from_file(path, seed=9, trials=None)
        assert cfg.seed == 9  # flag override wins
        assert cfg.trials == 5  # None override keeps the file value
        assert cfg.budgets == (0, 1)

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"experiment": "multinomial", "seed": 1, "volume": 11}')
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.from_file(path)


class TestRecordInvariants:
    def test_batch_above_online_rejected(self):
        message = r"batch error 0.3 exceeds online error 0.2 \(trial 1, budget 1\)"
        with pytest.raises(InvariantViolationError, match=message):
            check_records(1, [0.4, 0.4], [0.3, 0.2], [0.3, 0.3])

    def test_negative_error_rejected(self):
        with pytest.raises(InvariantViolationError, match="negative error in a record"):
            check_records(1, [0.4, -0.1], [0.3, 0.2], [0.3, 0.2])

    def test_first_bad_trial_decides_the_message(self):
        with pytest.raises(InvariantViolationError, match=r"\(trial 0, budget 3\)"):
            check_records(3, [0.4, -0.1], [0.2, 0.2], [0.3, 0.2])

    def test_multinomial_with_batch_above_online_exits_4(self, monkeypatch, capsys):
        worse = BatchResult(CountVector((5, 0, 0)), 9.0)
        monkeypatch.setattr(experiments, "batch_correct", lambda counts, theta0, budget: worse)
        argv = ["multinomial", "--seed", "1", "--trials", "3", "--budgets", "2,1"]
        assert cli.main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: InvariantViolationError: batch error 9.0")
        assert captured.err.endswith("(trial 0, budget 2)\n")


class TestMultinomialRunner:
    def test_zero_budget_reproduces_original(self):
        records = as_dicts(run_multinomial(config(trials=10, budgets=(0,))))
        assert len(records) == 10
        for r in records:
            assert r["error_online"] == r["error_original"]
            assert r["budget_spent"] == 0

    def test_default_shape_and_improvement(self):
        records = as_dicts(run_multinomial(config(trials=50)))
        assert len(records) == 50
        mean_orig = sum(r["error_original"] for r in records) / len(records)
        mean_online = sum(r["error_online"] for r in records) / len(records)
        assert mean_online <= mean_orig
        for r in records:
            assert r["error_batch"] <= r["error_online"] + 1e-12

    def test_full_budget_reaches_the_floor_everywhere(self):
        floor = e_min(5, Categorical((0.4, 0.3, 0.3))).error
        records = as_dicts(run_multinomial(config(trials=25, budgets=(5,))))
        for r in records:
            assert r["error_online"] == pytest.approx(floor, abs=1e-12)
            assert r["error_batch"] == pytest.approx(floor, abs=1e-12)


    @pytest.mark.parametrize("experiment,theta0", [
        ("multinomial", (0.45, 0.35, 0.2)), ("binomial", (0.3, 0.7))])
    def test_original_counts_tally_each_sampled_stream(self, monkeypatch, experiment, theta0):
        tallied = []

        def recording(f, counts):
            tallied.append(counts)
            return per_distinct_counts(f, counts)

        monkeypatch.setattr(experiments, "per_distinct_counts", recording)
        EXPERIMENTS[experiment].run(config(
            experiment=experiment, trials=40, n_values=(12,), budgets=(1,), theta0=theta0))
        streams = sample_sequence(
            Categorical(theta0), 12, spawn(4242, [(t,) for t in range(40)]))
        expected = [np.bincount(row, minlength=len(theta0)) for row in streams]
        rows, which = tallied[0]
        assert np.array_equal(rows[which], expected)
        # the originals, their online counts, and the originals again for the
        # batch errors: sorted once, not once per budget
        assert len(tallied) == 3 and tallied[2] is tallied[0]


class TestBinomialRunner:
    def test_online_matches_attainable_on_every_record(self):
        records = as_dicts(run_binomial(config(experiment="binomial", trials=50)))
        for r in records:
            assert r["error_attainable"] is not None
            assert r["error_online"] == pytest.approx(r["error_attainable"], abs=1e-12)
            assert r["error_online"] <= r["error_original"] + 1e-12

    def test_zero_budget_collapses_the_columns(self):
        records = as_dicts(run_binomial(config(experiment="binomial", trials=20, budgets=(0,))))
        for r in records:
            assert r["error_online"] == r["error_original"] == r["error_attainable"]
            assert r["error_batch"] == r["error_original"]

    def test_wide_theta_rejected(self):
        with pytest.raises(ConfigError, match="two-value"):
            run_binomial(config(experiment="binomial", theta0=(0.4, 0.3, 0.3)))


class TestVarianceRunner:
    def test_budget_reduces_variance(self):
        rows = as_dicts(run_variance_sweep(config(
            experiment="variance", n_values=(6, 9), budgets=(0, 1), trials=400,
        )))
        cells = {(r["n"], r["budget"]): r for r in rows}
        for n in (6, 9):
            assert cells[(n, 1)]["var_first"] < cells[(n, 0)]["var_first"]
            assert cells[(n, 1)]["var_total"] < cells[(n, 0)]["var_total"]

    def test_passive_binomial_matches_analytic_variance(self):
        # var of the first coordinate of a passive two-value estimate is
        # theta (1 - theta) / n
        theta = 0.5
        n, trials = 10, 4000
        rows = as_dicts(run_variance_sweep(config(
            experiment="variance", theta0=(theta, 1 - theta),
            n_values=(n,), budgets=(0,), trials=trials,
        )))
        truth = theta * (1 - theta) / n
        # normal-approximation SE of a sample variance
        se = truth * (2 / (trials - 1)) ** 0.5
        assert abs(rows[0]["var_first"] - truth) <= 3.5 * se


class TestBoundsRunner:
    def test_grid_and_columns(self):
        reports = as_dicts(run_bounds(config(
            experiment="bounds", n_values=(5,), m_values=(1, 2), budgets=(0, 2),
            trials=2000,
        )))
        assert [(r["N"], r["M"], r["B"]) for r in reports] == [
            (5, 1, 0), (5, 1, 2), (5, 2, 0), (5, 2, 2),
        ]
        for r in reports:
            assert r["trials"] == 2000
            assert r["var_corr"] <= r["bound_abs"]

    def test_one_report_per_grid_point_and_nothing_on_stderr(self, monkeypatch, capsys,
                                                             tmp_path):
        real = experiments.monte_carlo_report
        log = tmp_path / "calls"

        def counted(n, m, b, trials, seed):
            # appended to a file, so calls in a forked worker count too
            with open(log, "a") as fh:
                fh.write(f"{n} {m} {b}\n")
            return real(n, m, b, trials, seed)

        monkeypatch.setattr(experiments, "monte_carlo_report", counted)
        assert cli.main([
            "bounds", "--seed", "7", "--n-values", "5,10", "--m-values", "1,2",
            "--budgets", "0,1", "--trials", "1000",
        ]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert sorted(calls) == sorted(
            (n, m, b) for n in (5, 10) for m in (1, 2) for b in (0, 1)
        )


class TestBioRunner:
    def test_rates_fall_with_budget(self):
        rows = as_dicts(run_bio(config(
            experiment="bio", n_values=(8,), budgets=(0, 1), trials=400,
        )))
        but = {r["budget"]: r["misclassification_rate"] for r in rows}
        assert but[0] > but[1]

    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigError, match="theta0_label"):
            run_bio(config(experiment="bio", theta0_label=3, trials=10))

    @pytest.mark.parametrize("probs", [
        ([0.5, 0.5, 0], [0.2, 0.8, 0]), ([0.5, 0.5, 0], [0, 0.5, 0.5]),
    ], ids=["shared-zero", "disjoint-zeros"])
    def test_candidates_with_zero_probabilities(self, tmp_path, capsys, probs):
        # a relabel can reach final counts that no candidate explains
        path = tmp_path / "models.json"
        path.write_text(json.dumps({"version": 1, "models": [
            {"theta": 1, "probs": probs[0]}, {"theta": 4, "probs": probs[1]}]}))
        argv = ["bio", "--seed", "1", "--trials", "200", "--n-values", "6",
                "--budgets", "0,1,2", "--candidates", str(path), "--format", "json"]
        assert cli.main(argv) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["budget"] for r in rows] == [0, 1, 2]
        assert all(0 <= r["misclassification_rate"] <= 1 for r in rows)


class TestOutputFormats:
    def test_csv_format_is_stable(self):
        assert format_csv(("a", "b"), [(1, 0.5), (2, 1 / 3)]) == (
            "a,b\n1,0.5\n2,0.333333333333\n"
        )

    def test_csv_uses_12_significant_digits(self):
        text = format_csv(("x",), [(0.123456789012345,)])
        assert text == "x\n0.123456789012\n"

    def test_run_and_format_csv_header(self):
        text = run_and_format(config(trials=3))
        header = text.split("\n", 1)[0]
        assert header == MULTINOMIAL_HEADER

    def test_binomial_header_includes_attainable(self):
        text = run_and_format(config(experiment="binomial", trials=3))
        assert text.split("\n", 1)[0] == BINOMIAL_HEADER
        assert "error_attainable" in text

    @pytest.mark.parametrize("fields", [
        dict(experiment="multinomial", trials=3),
        dict(experiment="binomial", trials=3),
        dict(experiment="variance", n_values=(4,), budgets=(0, 1), trials=5),
        dict(experiment="bounds", n_values=(5,), m_values=(1,), budgets=(0, 1), trials=1000),
        dict(experiment="bio", n_values=(4,), budgets=(0, 1), trials=5),
    ], ids=lambda f: f["experiment"])
    def test_json_output_parses(self, fields):
        csv_text = run_and_format(config(**fields))
        rows = json.loads(run_and_format(config(**fields, fmt="json")))
        assert len(rows) == csv_text.count("\n") - 1 > 0
        # the JSON rows carry the CSV's columns and values exactly
        assert format_csv(tuple(rows[0]), [tuple(r.values()) for r in rows]) == csv_text
        # CSV formats every row by its first row's types: one type per column
        _, table = EXPERIMENTS[fields["experiment"]].run(config(**fields))
        assert {tuple(map(type, row)) for row in table} == {tuple(map(type, table[0]))}

    def test_peak_memory_per_row(self):
        # multinomial at budgets 0-3 emits 4 (trial, budget) rows per trial
        def formatted(trials):
            return run_and_format(config(trials=trials, n_values=(5,), budgets=(0, 1, 2, 3)))

        _, peak = traced_memory(lambda: formatted(20_000), lambda: formatted(100))
        assert peak <= 360 * 20_000 * 4

    def test_repeat_runs_are_byte_identical(self):
        cfg = config(experiment="binomial", trials=10)
        assert run_and_format(cfg) == run_and_format(cfg)


class TestCli:
    def test_solve_dumps_policy(self, tmp_path, capsys):
        out = tmp_path / "policy.txt"
        code = cli.main([
            "solve", "--n", "3", "--budget", "1", "--theta0", "0.5,0.5",
            "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert text.startswith("1,")
        assert "keep" in text

    def test_experiment_writes_csv(self, tmp_path):
        out = tmp_path / "records.csv"
        code = cli.main([
            "multinomial", "--seed", "5", "--trials", "4", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0] == MULTINOMIAL_HEADER
        assert len(lines) == 6  # header + 4 records + trailing newline

    def test_seed_is_mandatory(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["multinomial", "--trials", "4"])
        assert err.value.code == 2

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert cli.main(["multinomial", "--seed", "1", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("data,message", [
        ({"trials": "abc"}, "'trials' must be an integer"),
        ({"n_values": 5}, "'n_values' must be a list of integers"),
        ({"budgets": [1.5]}, "'budgets' must be a list of integers"),
        ([1, 2], "must hold a JSON object"),
    ])
    def test_wrongly_typed_config_file_exits_2(self, tmp_path, capsys, data, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert cli.main(["multinomial", "--seed", "1", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,field", [
        *[(name, field) for name in ("multinomial", "binomial", "variance", "bounds", "bio")
          for field in ("n_values", "budgets")],
        ("bounds", "m_values"),
    ])
    def test_empty_grid_in_config_file_exits_2(self, tmp_path, capsys, experiment, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: []}))
        assert cli.main([experiment, "--seed", "1", "--config", str(path)]) == 2
        assert f"config field {field!r} must not be empty" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,field,bad", [
        *[(name, "n_values", [3, 0]) for name in EXPERIMENTS],
        *[(name, "budgets", [1, -1]) for name in EXPERIMENTS],
        ("bounds", "m_values", [1, 0]),
    ])
    def test_out_of_range_grid_entry_exits_2(self, tmp_path, capsys, experiment, field, bad):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: bad}))
        assert cli.main([experiment, "--seed", "1", "--config", str(path)]) == 2
        least = 0 if field == "budgets" else 1
        assert (f"config field {field!r} entries must be at least {least}, got {tuple(bad)!r}"
                in capsys.readouterr().err)

    def test_state_bound_just_over_the_ceiling_exits_3_before_solving(self, monkeypatch, capsys):
        # k=3, budget 1: n=168 stays under the ceiling and n=169 passes it
        assert state_count_bound(3, 168, 1) <= DEFAULT_STATE_CEILING < state_count_bound(3, 169, 1)

        def forward_pass(*args):
            raise AssertionError("the forward pass ran")

        monkeypatch.setattr(dp, "arrivals", forward_pass)
        argv = ["variance", "--seed", "1", "--trials", "2", "--n-values", "169",
                "--budgets", "0,1"]
        assert cli.main(argv) == 3
        assert "exceeds the ceiling" in capsys.readouterr().err

    def test_trials_over_the_ceiling_exit_3_before_drawing(self, monkeypatch, capsys):
        def rng(*args, **kwargs):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(bounds, "MAX_TRIALS", 1500)
        monkeypatch.setattr(bounds.np.random, "default_rng", rng)
        argv = ["bounds", "--seed", "1", "--trials", "1501", "--n-values", "25",
                "--m-values", "4", "--budgets", "3"]
        assert cli.main(argv) == 3
        assert "1501 trials exceed the ceiling 1500" in capsys.readouterr().err

    def test_bounds_draws_over_the_ceiling_exit_3_before_drawing(self, monkeypatch, capsys):
        def rng(*args, **kwargs):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(bounds.np.random, "default_rng", rng)
        # the grid is checked whole, so the n=5 points draw nothing either
        argv = ["bounds", "--seed", "1", "--trials", "1000", "--n-values", f"5,{2**40}",
                "--m-values", "1", "--budgets", "0"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: 1000 trials at n={2**40} take {1000 * 2**40} draws, above the ceiling "
            "1250000000 for a bounds grid point\n")

    @pytest.mark.parametrize("experiment,rows_per_trial", [
        ("multinomial", 1), ("binomial", 1), ("variance", 0), ("bio", 0)])
    def test_draws_over_the_ceiling_exit_3_before_sampling(
        self, monkeypatch, capsys, experiment, rows_per_trial
    ):
        argv = [experiment, "--seed", "1", "--trials", "2", "--n-values", "3", "--budgets", "0"]
        units = 2 * (3 + 8 * (1 + rows_per_trial))
        monkeypatch.setattr(experiments, "MAX_DRAWS", units)
        assert cli.main(argv) == 0
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("seeds were spawned")

        monkeypatch.setattr(experiments, "MAX_DRAWS", units - 1)
        monkeypatch.setattr(experiments, "spawn", refuse)
        assert cli.main(argv) == 3
        assert f"{units} draw units, above the ceiling {units - 1}" in capsys.readouterr().err

    def test_json_rows_cost_more_draw_units_than_csv_rows(self, monkeypatch, capsys):
        # a JSON row grows VmHWM about 5.5 times as much as a CSV row
        class Spawned(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Spawned

        monkeypatch.setattr(experiments, "spawn", refuse)
        trials = experiments.MAX_DRAWS // (1 + 8 + 64 * 4) + 1
        argv = ["multinomial", "--seed", "1", "--trials", str(trials), "--n-values", "1",
                "--budgets", "0,1,2,3"]
        assert cli.main(argv + ["--format", "json"]) == 3
        assert (f"take {trials * 265} draw units, above the ceiling {experiments.MAX_DRAWS}"
                in capsys.readouterr().err)
        # the same run in CSV passes the check and gets as far as spawning seeds
        assert cli.main(argv) == 4
        assert "internal error: Spawned" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--budgets", "0,3"], "budget must lie in [0, n*m]"),
        (["--budgets", "0", "--trials", "999"], "need at least 1000 trials"),
        # 2 * 2**62 would overflow the int64 sums, and 2**64 is no spawn key
        (["--budgets", "0", "--m-values", str(2**62)],
         "n*m must stay below 2**63, the int64 range of the sums"),
        (["--budgets", "0", "--m-values", str(2**64)],
         "n*m must stay below 2**63, the int64 range of the sums"),
    ], ids=["budget-above-n-times-m", "too-few-trials", "n-times-m-overflows", "m-not-a-key"])
    def test_bad_bounds_grid_exits_2_before_drawing(self, monkeypatch, capsys, flags, message):
        def rng(*args, **kwargs):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(bounds.np.random, "default_rng", rng)
        argv = ["bounds", "--seed", "1", "--n-values", "2", "--m-values", "1", *flags]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_variance_with_one_trial_exits_2(self, capsys):
        argv = ["variance", "--seed", "1", "--n-values", "4", "--budgets", "0", "--trials", "1"]
        assert cli.main(argv) == 2
        assert "at least 2 trials" in capsys.readouterr().err

    def test_ceiling_exit_3(self, capsys):
        theta = ",".join(["0.2"] * 5)
        code = cli.main(["solve", "--n", "100", "--budget", "1", "--theta0", theta])
        assert code == 3

    def test_solve_negative_budget_exits_2(self, capsys):
        assert cli.main(["solve", "--n", "3", "--budget", "-1", "--theta0", "0.5,0.5"]) == 2
        assert capsys.readouterr().err == "error: budget must be nonnegative\n"

    def test_invariant_violation_exit_4(self, monkeypatch, capsys):
        def explode(cfg):
            raise InvariantViolationError("boom")

        monkeypatch.setattr(cli, "run_and_format", explode)
        assert cli.main(["multinomial", "--seed", "1"]) == 4

    @pytest.mark.parametrize("data,field", [
        ([1, 2], "must hold a JSON object"),
        ({"version": 1}, "field 'models'"),
        ({"version": 1, "models": 5}, "field 'models'"),
        ({"version": 1, "models": [{"theta": 1}, {"theta": 4, "probs": [0.5, 0.5]}]},
         "field 'models[0].probs'"),
        ({"version": 1, "models": [{"theta": 1, "probs": 0.5}]}, "field 'models[0].probs'"),
    ], ids=["top-level-list", "models-missing", "models-not-list", "probs-missing",
            "probs-not-list"])
    def test_malformed_candidate_file_exits_2(self, tmp_path, capsys, data, field):
        path = tmp_path / "models.json"
        path.write_text(json.dumps(data))
        assert cli.main(["bio", "--seed", "1", "--candidates", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"candidate file {path}: " in err and field in err

    def test_uncovered_replay_state_exit_4(self, monkeypatch, capsys):
        # a policy missing the states a replay reaches is a bug, not bad input
        def empty_policy(spec, budgets):
            return Policy(spec.k, spec.n, tuple(budgets), {}, {})

        monkeypatch.setattr(teacher, "solve", empty_policy)
        assert cli.main(["multinomial", "--seed", "1", "--trials", "2"]) == 4
        assert "internal error: " in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "binomial", "seed": 3, "trials": 2}))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(["binomial", "--seed", "3", "--config", str(cfg),
                         "--out", str(out_a)]) == 0
        assert cli.main(["binomial", "--seed", "3", "--trials", "2",
                         "--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()

    def test_config_for_another_experiment_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "bounds", "seed": 3, "trials": 2}))
        assert cli.main(["multinomial", "--seed", "3", "--config", str(cfg)]) == 2
        assert "the bounds experiment, not the multinomial" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,field", FOREIGN_PARAMETERS)
    def test_parameter_the_experiment_does_not_read_exits_2(
        self, tmp_path, capsys, experiment, field
    ):
        write_candidates(default_candidates(), tmp_path / "models.json")
        flag_value, file_value = {
            "m_values": ("9", [9]),
            "theta0": ("0.5,0.5", [0.5, 0.5]),
            "candidates": (str(tmp_path / "models.json"),) * 2,
            "theta0_label": ("4", 4),
        }[field]
        argv = [experiment, "--seed", "1", *SMALL_RUN[experiment]]
        with pytest.raises(SystemExit) as err:
            cli.main([*argv, "--" + field.replace("_", "-"), flag_value])
        assert err.value.code == 2
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: file_value}))
        assert cli.main([*argv, "--config", str(cfg)]) == 2
        assert f"the {experiment} experiment takes no {field!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "bio --seed 1 --trials 3 --n-values 3 --budgets 0 --theta0 0.5,0.5 --m-values 9",
        "variance --seed 1 --candidates /nonexistent",
        "multinomial --seed 1 --n 4 --budget 2",
        "solve --n 3 --budget 1 --theta 0.5,0.5",
        "bio --seed 1 --trials 3 --n-values 3 --budgets 0 --theta0 4",
    ], ids=["ignored-flags", "unread-candidates", "abbreviated-experiment-flags",
            "abbreviated-solve-flag", "theta0-is-not-theta0-label"])
    def test_unread_or_abbreviated_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(argv.split())
        assert err.value.code == 2

    def test_repeat_runs_byte_identical(self, tmp_path):
        outs = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            assert cli.main([
                "variance", "--seed", "11", "--n-values", "5",
                "--budgets", "0,1", "--trials", "100", "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


SRC = Path(__file__).resolve().parent.parent / "src"
# Run with ``python -c``: plants a fault in the package, then runs the CLI
# on the remaining arguments.
SHIM = "import sys\n{fault}from corrlearn import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
FAULTS = {
    "replay-target-outside-alphabet": (
        "from corrlearn import teacher\n"
        "from corrlearn.mdp import Action\n"
        "class Rogue:\n"
        "    def action_for(self, state):\n"
        "        return Action(7)\n"
        "teacher.solve = lambda spec, budgets: Rogue()\n"),
    "failed-assertion": (
        "from corrlearn import experiments\n"
        "def fault(config):\n"
        "    raise AssertionError('projection moved a sum beyond the budget')\n"
        "experiments.run_bounds = fault\n"),
}


@pytest.mark.parametrize("argv,fault,code,message", [
    ("solve --n 0 --budget 1 --theta0 0.5,0.5", None, 2, "error: horizon must be at least 1\n"),
    ("solve --n 3 --budget 1 --theta0 0.5,0.6", None, 2,
     "error: probabilities sum to 1.1, not 1\n"),
    ("solve --n 3 --budget -1 --theta0 0.5,0.5", None, 2, "error: budget must be nonnegative\n"),
    ("bounds --seed 1 --n-values 2 --m-values 1 --budgets 0,3", None, 2,
     "error: budget must lie in [0, n*m]\n"),
    ("bounds --seed 1 --trials 999", None, 2, "error: need at least 1000 trials\n"),
    ("multinomial --seed -1", None, 2, "error: seed must fit in an unsigned 64-bit integer\n"),
    ("bio --seed 1 --trials 0", None, 2, "error: trials must be positive\n"),
    ("bio --seed 1 --candidates {models}", None, 2,
     "error: candidate file {models}: must hold a JSON object, got list\n"),
    ("bio --seed 1 --candidates {garbled}", None, 2,
     "error: candidate file {garbled}: 'utf-8' codec can't decode byte 0xff"),
    ("variance --seed 1 --config {garbled}", None, 2,
     "error: cannot read config {garbled}: 'utf-8' codec can't decode byte 0xff"),
    ("solve --n 100 --budget 1 --theta0 0.2,0.2,0.2,0.2,0.2", None, 3, "exceeds the ceiling"),
    ("solve --n 1000000000000 --budget 0 --theta0 0.5,0.5", None, 3, "exceeds the ceiling"),
    ("bounds --seed 1 --trials 1000 --n-values 1099511627776 --m-values 1 --budgets 0", None, 3,
     "draws, above the ceiling 1250000000 for a bounds grid point\n"),
    ("multinomial --seed 1 --trials 2", "replay-target-outside-alphabet", 4,
     "internal error: ValueError: action target 7 outside the alphabet\n"),
    ("bounds --seed 1", "failed-assertion", 4,
     "internal error: AssertionError: projection moved a sum beyond the budget\n"),
], ids=["solve-n-0", "solve-theta0-sum", "solve-negative-budget", "bounds-budget-above-nm",
        "bounds-too-few-trials", "seed-out-of-range", "bio-no-trials", "malformed-candidates",
        "candidates-not-utf8", "config-not-utf8",
        "solve-state-ceiling", "solve-huge-n", "bounds-huge-n", "internal-value-error",
        "internal-assertion"])
def test_process_exit_codes(tmp_path, argv, fault, code, message):
    """Exit 2 for bad input, 3 for a ceiling and 4 for a bug, as a process."""
    models = tmp_path / "models.json"
    models.write_text("[1, 2]")
    garbled = tmp_path / "garbled.json"
    garbled.write_bytes(b"\xff\xfe\x00bad")
    argv = argv.format(models=models, garbled=garbled).split()
    if fault is None:
        command = [sys.executable, "-m", "corrlearn.cli", *argv]
    else:
        command = [sys.executable, "-c", SHIM.format(fault=FAULTS[fault]), *argv]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stdout) == (code, "")
    assert message.format(models=models, garbled=garbled) in run.stderr
