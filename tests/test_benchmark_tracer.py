"""The benchmark's layer tracer (``benchmarks/layers.py``) still finds
every function it wraps, so traced runs report work counters instead of
``missing`` entries after a rename, and its ``dp.solve`` hook still reads
the spec from ``solve``'s arguments."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Spans the tracer lists whose function the package deleted on purpose:
# streams are replayed by ``teacher._replay``, which it does not wrap yet,
# and the ``bio`` runner is ``experiments.run_bio``. Any other entry is a
# rename the tracer missed.
DELETED_SPANS = ["teacher.run_online", "likelihood.misclassification_experiment"]

# One usable CPU, so nothing forks: a forked worker's counters would stay
# in the worker, and the grid test would count only this process's share.
SCRIPT = """
import contextlib, io, json, os, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
os.sched_getaffinity = lambda pid: {0}
from layers import Tracer
tracer = Tracer()
tracer.install()
tracer.check_coverage()
from corrlearn import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[3]))
summary = tracer.summary()
print(json.dumps({"code": code, "missing": summary["missing"],
                  "calls": {name: s["calls"] for name, s in summary["spans"].items()},
                  "counters": summary["counters"]}))
"""


def traced(argv):
    # a fresh interpreter, so the wrapped bindings never reach other tests
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "benchmarks"),
         json.dumps(argv)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


def test_tracer_covers_the_package():
    out = traced(["multinomial", "--seed", "1", "--trials", "3"])
    assert out["code"] == 0
    assert out["missing"] == DELETED_SPANS
    assert out["calls"]["dp.solve"] == 1


def test_traced_bounds_grid_counts_every_point():
    # the monte_carlo_report hook keys each point by its arguments, seed included
    out = traced(["bounds", "--seed", "1", "--trials", "1000", "--n-values", "2,3",
                  "--m-values", "1,2", "--budgets", "0,1"])
    assert out["code"] == 0
    assert out["missing"] == DELETED_SPANS
    assert out["counters"]["bounds.monte_carlo_report.points"] == 2 * 2 * 2
    assert out["counters"]["bounds.monte_carlo_report.draws"] == 1000 * (2 + 3) * 2 * 2


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "3", "--budget", "1", "--theta0", "0.5,0.5"],
    ["variance", "--seed", "1", "--trials", "2", "--n-values", "3", "--budgets", "0,1"],
], ids=["solve", "variance"])
def test_traced_run_counts_one_solve_key(argv):
    out = traced(argv)
    assert out["code"] == 0
    assert out["missing"] == DELETED_SPANS
    assert out["counters"]["dp.solve.keys"] == 1
