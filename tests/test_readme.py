"""The README's library quick tour runs as written, its CLI examples
parse, and its flag table shows the defaults ``--help`` shows."""

import re
import shlex
from pathlib import Path

import pytest

from corrlearn.cli import build_parser
from corrlearn.experiments import EXPERIMENTS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    tour = README.read_text().split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    namespace: dict = {}
    exec(code, namespace)
    assert namespace["corrected"].shape == namespace["streams"].shape == (3, 5)
    assert (namespace["spent"] <= 1).all()
    moved = sum(abs(a - b) for a, b in zip(namespace["original"].counts,
                                           namespace["offline"].corrected.counts)) // 2
    assert moved <= 1


def test_cli_examples_parse():
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words[1:] for words in commands if words[:1] == ["corrlearn"]]
    assert commands
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits 2 on a flag the subcommand does not take


def test_cli_table_shows_every_default(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")  # no wrapped help text
    section = README.read_text().split("## CLI", 1)[1]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if cells[0] == "experiment":
            columns = cells
        elif cells[0].strip("`") in EXPERIMENTS:
            rows[cells[0].strip("`")] = dict(zip(columns, cells))
    assert set(rows) == set(EXPERIMENTS)
    for name, row in rows.items():
        with pytest.raises(SystemExit):
            build_parser().parse_args([name, "--help"])
        help_text = capsys.readouterr().out
        shown = re.findall(r"(--[a-z0-9-]+) [A-Z0-9_]+\s+default: (.+)", help_text)
        assert len(shown) == len(EXPERIMENTS[name].defaults)
        for flag, default in shown:
            cell = row.get(f"`{flag}`")
            if cell is None:
                assert f"`{flag}` {default}" in row["other flags"], (name, flag)
            else:
                assert cell.split(" (")[0] == default, (name, flag)
