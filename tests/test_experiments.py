import dataclasses
import json

import pytest

from corrlearn import cli, experiments, teacher
from corrlearn.batch import e_min
from corrlearn.core import Categorical
from corrlearn.dp import Policy
from corrlearn.experiments import (
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    InvariantViolationError,
    format_csv,
    run_and_format,
    run_binomial,
    run_bio,
    run_bounds,
    run_multinomial,
    run_variance_sweep,
)
from corrlearn.likelihood import default_candidates


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
        with pytest.raises(InvariantViolationError, match="batch error"):
            ExperimentRecord(
                experiment="multinomial", seed=1, trial=0, budget=1,
                error_original=0.4, error_online=0.2, error_batch=0.3,
                budget_spent=1,
            )

    def test_negative_error_rejected(self):
        with pytest.raises(InvariantViolationError):
            ExperimentRecord(
                experiment="multinomial", seed=1, trial=0, budget=1,
                error_original=-0.1, error_online=0.2, error_batch=0.2,
                budget_spent=1,
            )


class TestMultinomialRunner:
    def test_zero_budget_reproduces_original(self):
        records = run_multinomial(config(trials=10, budgets=(0,)))
        assert len(records) == 10
        for r in records:
            assert r["error_online"] == r["error_original"]
            assert r["budget_spent"] == 0

    def test_default_shape_and_improvement(self):
        records = run_multinomial(config(trials=50))
        assert len(records) == 50
        mean_orig = sum(r["error_original"] for r in records) / len(records)
        mean_online = sum(r["error_online"] for r in records) / len(records)
        assert mean_online <= mean_orig
        for r in records:
            assert r["error_batch"] <= r["error_online"] + 1e-12

    def test_full_budget_reaches_the_floor_everywhere(self):
        floor = e_min(5, Categorical((0.4, 0.3, 0.3))).error
        records = run_multinomial(config(trials=25, budgets=(5,)))
        for r in records:
            assert r["error_online"] == pytest.approx(floor, abs=1e-12)
            assert r["error_batch"] == pytest.approx(floor, abs=1e-12)


class TestBinomialRunner:
    def test_online_matches_attainable_on_every_record(self):
        records = run_binomial(config(experiment="binomial", trials=50))
        for r in records:
            assert r["error_attainable"] is not None
            assert r["error_online"] == pytest.approx(r["error_attainable"], abs=1e-12)
            assert r["error_online"] <= r["error_original"] + 1e-12

    def test_zero_budget_collapses_the_columns(self):
        records = run_binomial(config(experiment="binomial", trials=20, budgets=(0,)))
        for r in records:
            assert r["error_online"] == r["error_original"] == r["error_attainable"]
            assert r["error_batch"] == r["error_original"]

    def test_wide_theta_rejected(self):
        with pytest.raises(ConfigError, match="two-value"):
            run_binomial(config(experiment="binomial", theta0=(0.4, 0.3, 0.3)))


class TestVarianceRunner:
    def test_budget_reduces_variance(self):
        rows = run_variance_sweep(config(
            experiment="variance", n_values=(6, 9), budgets=(0, 1), trials=400,
        ))
        cells = {(r["n"], r["budget"]): r for r in rows}
        for n in (6, 9):
            assert cells[(n, 1)]["var_first"] < cells[(n, 0)]["var_first"]
            assert cells[(n, 1)]["var_total"] < cells[(n, 0)]["var_total"]

    def test_passive_binomial_matches_analytic_variance(self):
        # var of the first coordinate of a passive two-value estimate is
        # theta (1 - theta) / n
        theta = 0.5
        n, trials = 10, 4000
        rows = run_variance_sweep(config(
            experiment="variance", theta0=(theta, 1 - theta),
            n_values=(n,), budgets=(0,), trials=trials,
        ))
        truth = theta * (1 - theta) / n
        # normal-approximation SE of a sample variance
        se = truth * (2 / (trials - 1)) ** 0.5
        assert abs(rows[0]["var_first"] - truth) <= 3.5 * se


class TestBoundsRunner:
    def test_grid_and_columns(self):
        reports = run_bounds(config(
            experiment="bounds", n_values=(5,), m_values=(1, 2), budgets=(0, 2),
            trials=2000,
        ))
        assert [(r["N"], r["M"], r["B"]) for r in reports] == [
            (5, 1, 0), (5, 1, 2), (5, 2, 0), (5, 2, 2),
        ]
        for r in reports:
            assert r["trials"] == 2000
            assert r["var_corr"] <= r["bound_abs"]

    def test_ratio_bound_note_from_one_grid_run(self, monkeypatch, capsys):
        real = experiments.monte_carlo_report
        calls = []

        def report_with_one_violation(n, m, b, trials, seed):
            calls.append((n, m, b))
            report = real(n, m, b, trials, seed)
            if (n, m, b) == (10, 2, 1):
                report = dataclasses.replace(
                    report, empirical_ratio=report.bound_ratio_paper + 0.5
                )
            return report

        monkeypatch.setattr(experiments, "monte_carlo_report", report_with_one_violation)
        assert cli.main([
            "bounds", "--seed", "7", "--n-values", "5,10", "--m-values", "1,2",
            "--budgets", "0,1", "--trials", "1000",
        ]) == cli.EXIT_OK
        _, err = capsys.readouterr()
        assert err == (
            "note: empirical variance ratio exceeds the stated ratio bound at "
            "1 grid point(s) (first: N,M,B=(10, 2, 1)); the ratio bound is "
            "reported for reference only, the absolute bound is the verified one.\n"
        )
        assert sorted(calls) == sorted(
            (n, m, b) for n in (5, 10) for m in (1, 2) for b in (0, 1)
        )


class TestBioRunner:
    def test_rates_fall_with_budget(self):
        rows = run_bio(config(
            experiment="bio", n_values=(8,), budgets=(0, 1), trials=400,
        ))
        but = {r["budget"]: r["misclassification_rate"] for r in rows}
        assert but[0] > but[1]

    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigError, match="theta0_label"):
            run_bio(config(experiment="bio", theta0_label=3, trials=10))


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

    def test_variance_with_one_trial_exits_2(self, capsys):
        argv = ["variance", "--seed", "1", "--n-values", "4", "--budgets", "0", "--trials", "1"]
        assert cli.main(argv) == 2
        assert "at least 2 trials" in capsys.readouterr().err

    def test_ceiling_exit_3(self, capsys):
        theta = ",".join(["0.2"] * 5)
        code = cli.main(["solve", "--n", "100", "--budget", "1", "--theta0", theta])
        assert code == 3

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
        def empty_policy(spec):
            return Policy(spec.k, spec.n, spec.budget, {}), None

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
        default_candidates().to_file(tmp_path / "models.json")
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
