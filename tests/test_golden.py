"""CLI stdout, byte for byte, against the files in ``tests/golden/``.

The files pin the output of all five experiments at small seeded configs
and the ``solve`` policy dump over a grid of specs. Regenerate them with
``PYTHONPATH=src python tests/test_golden.py`` only for an intended change
of output, and say so in the change's description.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from corrlearn import cli, dp

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
    # 20,000 trials cross block edges of the Monte-Carlo draws
    "bounds_chunked": [
        "bounds", "--seed", "7", "--trials", "20000", "--n-values", "5,25",
        "--m-values", "1,4", "--budgets", "0,3",
    ],
    # m either side of 2**32 takes both the 32-bit and the 64-bit draws
    "bounds_huge_m": [
        "bounds", "--seed", "1", "--trials", "1000", "--n-values", "2,3",
        "--m-values", "4294967295,4294967296", "--budgets", "0,1",
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


SOLVE_CASES = {**POLICIES, **ZERO_PROB_POLICIES}


def neumaier_sum(values, start=0):
    """The builtin ``sum`` of floats from Python 3.12: compensated."""
    total, compensation = float(start), 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    return total + compensation


def root_values(argv):
    """``repr`` of the root values of the solve case ``argv``."""
    args = cli.build_parser().parse_args(argv)
    return repr(dp.solve(cli._solve_spec(args), (args.budget,)).root_values)


def test_solve_goldens_do_not_depend_on_the_builtin_sum(monkeypatch):
    roots = {name: root_values(argv) for name, argv in SOLVE_CASES.items()}
    monkeypatch.setattr(dp, "sum", neumaier_sum, raising=False)
    differ = [name for name, argv in SOLVE_CASES.items()
              if cli_stdout(argv).encode() != (GOLDEN / f"{name}.txt").read_bytes()
              or root_values(argv) != roots[name]]
    assert differ == []


# Runs in another interpreter: stdout and root values (as ``root_values``
# gives them) of every solve case, by name, as JSON.
CHILD = """
import contextlib, io, json, sys
from corrlearn import cli, dp
out = {}
for name, argv in json.load(sys.stdin).items():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    args = cli.build_parser().parse_args(argv)
    roots = dp.solve(cli._solve_spec(args), (args.budget,)).root_values
    out[name] = [buf.getvalue(), repr(roots)]
json.dump(out, sys.stdout)
"""


def other_interpreters():
    """Installed pyenv interpreters >= 3.10 of another minor version."""
    found = []
    for python in sorted(Path.home().glob(".pyenv/versions/3.1*/bin/python")):
        version = re.match(r"(\d+)\.(\d+)", python.parent.parent.name)
        if version:
            minor = tuple(map(int, version.groups()))
            if minor >= (3, 10) and minor != sys.version_info[:2]:
                found.append(python)
    return found


def test_solve_goldens_under_other_pythons(tmp_path):
    """``dp``, ``mdp`` and the ``core`` types never call numpy, so the solve
    cases run on interpreters without it, against an empty stub package.
    Their dumps match the goldens, and their root values this
    interpreter's, bit for bit."""
    pythons = other_interpreters()
    if not pythons:
        pytest.skip("no other Python >= 3.10 installed")
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text("")
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(src), str(tmp_path)))}
    roots = {name: root_values(argv) for name, argv in SOLVE_CASES.items()}
    differ = []
    for python in pythons:
        run = subprocess.run([str(python), "-c", CHILD], input=json.dumps(SOLVE_CASES),
                             capture_output=True, text=True, env=env, timeout=300)
        assert run.returncode == 0, (python, run.stderr)
        for name, (text, root) in json.loads(run.stdout).items():
            if text.encode() != (GOLDEN / f"{name}.txt").read_bytes():
                differ.append((python.parent.parent.name, name, "dump"))
            if root != roots[name]:
                differ.append((python.parent.parent.name, name, "root values"))
    assert differ == []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_bytes(cli_stdout(argv).encode())
