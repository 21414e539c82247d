"""The experiment workloads of the benchmark (``WORKLOADS`` in
``benchmarks/run.py``) at its default seed print the bytes whose sha256
``benchmarks/reference.json`` records, so an output change shows here
before a benchmark run fails on it. The ``trials`` argvs run again on one
usable CPU, so both their forked and their serial output are pinned. The
reference file is only read."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
from pathlib import Path

import pytest

from corrlearn import cli

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def benchmark_run():
    spec = importlib.util.spec_from_file_location("benchmark_run", BENCHMARKS / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = benchmark_run()
REFERENCE = json.loads((BENCHMARKS / "reference.json").read_text())["invocations"]
ARGVS = [argv for workload in ("trials", "sweep")
         for argv in RUN.WORKLOADS[workload](RUN.DEFAULT_SEED)]
TRIALS = RUN.WORKLOADS["trials"](RUN.DEFAULT_SEED)


@pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(argv) for argv in ARGVS])
def test_stdout_matches_the_reference_digest(argv):
    check_digest(argv)


@pytest.mark.parametrize("argv", TRIALS, ids=[" ".join(argv) for argv in TRIALS])
def test_serial_stdout_matches_the_reference_digest(monkeypatch, argv):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    check_digest(argv)


def check_digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == cli.EXIT_OK
    reference = REFERENCE[" ".join(argv)]
    assert reference["exit"] == cli.EXIT_OK
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == reference["sha256"]
