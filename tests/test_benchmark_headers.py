"""Each experiment's CSV header is the one the benchmark's structural
check expects (``_CSV_HEADERS`` in ``benchmarks/run.py``), so the two
cannot drift apart."""

import importlib.util
from pathlib import Path

import pytest

from corrlearn import cli
from corrlearn.experiments import EXPERIMENTS

RUN_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"
# flags that keep each experiment's run short
SMALL_RUN = {
    "multinomial": ["--trials", "2", "--n-values", "3", "--budgets", "0"],
    "binomial": ["--trials", "2", "--n-values", "3", "--budgets", "0"],
    "variance": ["--trials", "2", "--n-values", "3", "--budgets", "0"],
    "bounds": ["--trials", "1000", "--n-values", "3", "--m-values", "1", "--budgets", "0"],
    "bio": ["--trials", "2", "--n-values", "3", "--budgets", "0"],
}


def benchmark_headers() -> dict[str, str]:
    spec = importlib.util.spec_from_file_location("benchmark_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._CSV_HEADERS


def test_every_experiment_has_a_benchmark_header():
    assert set(benchmark_headers()) == set(EXPERIMENTS)


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_csv_header_matches_the_benchmark(capsys, experiment):
    assert cli.main([experiment, "--seed", "1", *SMALL_RUN[experiment]]) == cli.EXIT_OK
    header = capsys.readouterr().out.split("\n", 1)[0]
    assert header == benchmark_headers()[experiment]
