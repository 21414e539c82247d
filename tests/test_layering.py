"""Module layering, read from the package's source with ``ast``: the model
modules build only on ``core`` and ``mdp``, ``experiments`` is the one
module that samples streams or replays the teacher on them, and only
``mdp.arrivals`` and ``teacher._replay`` build decision-process states."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "corrlearn"


def imports(module):
    """(package module, name) for each name that ``module`` imports from
    the package; ``from . import x`` counts as importing module x."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "corrlearn"):
            source = (node.module or "").removeprefix("corrlearn").lstrip(".")
            found.update((source or alias.name, alias.name) for alias in node.names)
    return found


@pytest.mark.parametrize("module", ["batch", "bounds", "likelihood"])
def test_model_modules_import_only_core_and_mdp(module):
    assert {source for source, _ in imports(module)} <= {"core", "mdp"}


def test_only_experiments_samples_and_replays():
    users = {
        path.stem
        for path in PACKAGE.glob("*.py") if path.stem != "__init__"
        for _, name in imports(path.stem) if name in ("sample_sequence", "replays")
    }
    assert users == {"experiments"}


def test_only_arrivals_and_replay_build_states():
    # ``TeacherState`` does not check itself; these two builders keep it valid
    builders = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        caller = {}  # each call -> the innermost function around it
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(function):
                    caller[node] = getattr(function, "name", "<lambda>")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "TeacherState" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                builders.add((path.stem, caller.get(node)))
    assert builders == {("mdp", "arrivals"), ("teacher", "_replay")}
