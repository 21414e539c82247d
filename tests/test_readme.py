"""The README's library quick tour runs as written, and its CLI examples
parse."""

import re
import shlex
from pathlib import Path

from corrlearn.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    tour = README.read_text().split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    namespace: dict = {}
    exec(code, namespace)
    assert namespace["trace"].budget_spent <= 1
    assert namespace["offline"].corrections_used <= 1


def test_cli_examples_parse():
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words[1:] for words in commands if words[:1] == ["corrlearn"]]
    assert commands
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits 2 on a flag the subcommand does not take
