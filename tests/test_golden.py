"""CLI stdout, byte for byte, against the files in ``tests/golden/``.

The files pin the output of all five experiments at small seeded configs
and the ``solve`` policy dump over a grid of specs. Regenerate them with
``PYTHONPATH=src python tests/test_golden.py`` only for an intended change
of output, and say so in the change's description.
"""

import contextlib
import io
from pathlib import Path

import pytest

from corrlearn import cli

GOLDEN = Path(__file__).parent / "golden"

EXPERIMENTS = {
    "multinomial_defaults": ["multinomial", "--seed", "7", "--trials", "10"],
    "multinomial_skewed": [
        "multinomial", "--seed", "7", "--trials", "15",
        "--theta0", "0.45,0.35,0.2", "--n-values", "12", "--budgets", "1,2,3",
    ],
    "binomial_skewed": [
        "binomial", "--seed", "7", "--trials", "15",
        "--theta0", "0.3,0.7", "--n-values", "13", "--budgets", "1,2,5",
    ],
    "binomial_json": ["binomial", "--seed", "3", "--trials", "5", "--format", "json"],
    "variance_small": [
        "variance", "--seed", "7", "--n-values", "4,7", "--budgets", "0,1,2",
        "--trials", "40",
    ],
    "bounds_small": [
        "bounds", "--seed", "7", "--n-values", "5,10", "--m-values", "1,3",
        "--budgets", "0,1,3", "--trials", "1000",
    ],
    "bio_small": [
        "bio", "--seed", "7", "--n-values", "4,6", "--budgets", "0,1,2",
        "--trials", "20",
    ],
}

POLICY_THETAS = {2: "0.3,0.7", 3: "0.4,0.35,0.25", 4: "0.1,0.2,0.3,0.4"}
POLICIES = {
    f"solve_k{k}_n{n}_b{b}": ["solve", "--n", str(n), "--budget", str(b), "--theta0", theta]
    for k, theta in POLICY_THETAS.items()
    for n in ((3, 8) if k < 4 else (3, 6))
    for b in (0, 1, 2)
}
# thetas with a zero-probability outcome, whose draws the solver prunes
ZERO_PROB_POLICIES = {
    **{
        f"solve_zero_k3_n6_b{b}": ["solve", "--n", "6", "--budget", str(b),
                                   "--theta0", "0.5,0.5,0"]
        for b in (0, 1, 2)
    },
    "solve_zero_k2_n5_b2": ["solve", "--n", "5", "--budget", "2", "--theta0", "1,0"],
    "solve_zero_k3_n5_b1": ["solve", "--n", "5", "--budget", "1", "--theta0", "0.6,0,0.4"],
}

CASES = {**EXPERIMENTS, **POLICIES, **ZERO_PROB_POLICIES}


def cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == cli.EXIT_OK
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert cli_stdout(CASES[name]).encode() == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_bytes(cli_stdout(argv).encode())
