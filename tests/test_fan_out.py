"""The variance and bio experiments split their n keys, and the bounds
experiment its grid points, over forked workers behind one gate
(``experiments._shares``).

Warnings are errors here, so a pipe left open (a ``ResourceWarning``)
fails the suite.
"""

import contextlib
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from corrlearn import cli, experiments, teacher
from corrlearn.dp import DEFAULT_STATE_CEILING, CeilingExceededError
from corrlearn.experiments import ExperimentConfig, run_bio, run_variance_sweep
from corrlearn.mdp import state_count_bound

pytestmark = pytest.mark.filterwarnings("error")

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
# the goldens' variance_small run: n=7 is the longer job, so with two CPUs
# this process runs n=7 and one worker runs n=4
VARIANCE_SMALL = ["variance", "--seed", "7", "--n-values", "4,7", "--budgets", "0,1,2",
                  "--trials", "40"]
# the goldens' bounds_chunked run: a point costs its n, so with two CPUs this
# process runs the budget-0 points and one worker the budget-3 points
BOUNDS_CHUNKED = ["bounds", "--seed", "7", "--trials", "20000", "--n-values", "5,25",
                  "--m-values", "1,4", "--budgets", "0,3"]
BOUNDS_GRID = [(n, m, b) for n in (5, 25) for m in (1, 4) for b in (0, 3)]


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def count_forks(monkeypatch):
    """Record each ``os.fork`` this process makes."""
    forks = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def refuse_forks(monkeypatch):
    def fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "fork", fork)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def another_thread():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        yield
    finally:
        release.set()
        thread.join()


class TestFanOut:
    def test_longest_first_split_and_item_order(self):
        # costs 5, 3, 2, 1 over two shares: {b, a} here, {c, d} in one worker
        ran = experiments._fan_out(lambda x: (x, os.getpid()), ["a", "b", "c", "d"],
                                   [1, 5, 3, 2], 2)
        assert [x for x, _ in ran] == ["a", "b", "c", "d"]
        pids = [pid for _, pid in ran]
        assert pids[0] == pids[1] == os.getpid()
        assert pids[2] == pids[3] != os.getpid()
        assert_no_children()

    @pytest.mark.parametrize("items,shares", [([3], 4), ([3, 4], 1)])
    def test_one_item_or_one_share_stays_in_process(self, monkeypatch, items, shares):
        refuse_forks(monkeypatch)
        assert experiments._fan_out(lambda x: x * x, items, [1] * len(items), shares) == [
            x * x for x in items]

    def test_failed_fork_runs_the_share_here(self, monkeypatch):
        def fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", fork)
        assert experiments._fan_out(lambda x: (x, os.getpid()), [1, 2, 3], [1, 2, 3], 3) == [
            (x, os.getpid()) for x in (1, 2, 3)]

    def test_unpicklable_result_is_raised_here(self, capfd):
        with pytest.raises(RuntimeError, match="sent no readable results"):
            experiments._fan_out(lambda x: (lambda: x) if x == 1 else x, [1, 2], [1, 2], 2)
        assert capfd.readouterr() == ("", "")
        assert_no_children()


@pytest.mark.parametrize("experiment,n_values", [
    ("variance", (4, 7)), ("variance", (3, 5, 4, 6)), ("bio", (3, 5, 4)),
])
def test_rows_equal_on_one_two_and_three_cpus(monkeypatch, experiment, n_values):
    run = {"variance": run_variance_sweep, "bio": run_bio}[experiment]
    cfg = ExperimentConfig(experiment=experiment, seed=11, trials=30, n_values=n_values,
                           budgets=(0, 1, 2))
    forks = count_forks(monkeypatch)
    rows = {}
    for count in (1, 2, 3):
        cpus(monkeypatch, count)
        rows[count] = run(cfg)
        assert len(forks) == min(count, len(n_values)) - 1
        forks.clear()
        assert_no_children()
    assert rows[1] == rows[2] == rows[3]


@pytest.mark.parametrize("n_values,faulty,error,code", [
    ("4,7", {4}, ValueError, 4), ("4,7", {7}, ValueError, 4), ("4,7", {4, 7}, ValueError, 4),
    ("4,7", {4}, CeilingExceededError, 3),
    # three shares, n=5 here: the worker with n=4 reports after the one with n=3
    ("4,3,5", {3, 4}, ValueError, 4),
], ids=["worker", "parent", "both", "worker-ceiling", "two-workers"])
def test_fault_in_any_share_fails_as_serial(monkeypatch, capsys, n_values, faulty, error, code):
    real = experiments.sample_sequence

    def sample(dist, n, seeds):
        if n in faulty:
            raise error(f"planted fault at n={n}")
        return real(dist, n, seeds)

    monkeypatch.setattr(experiments, "sample_sequence", sample)
    forks = count_forks(monkeypatch)
    argv = ["variance", "--seed", "7", "--n-values", n_values, "--trials", "40"]
    shares = len(n_values.split(","))
    outs = []
    for count in (1, shares):
        cpus(monkeypatch, count)
        assert cli.main(argv) == code
        outs.append(capsys.readouterr())
        assert_no_children()
    assert len(forks) == shares - 1
    assert outs[0] == outs[1]
    assert outs[0].out == ""
    first = next(int(n) for n in n_values.split(",") if int(n) in faulty)
    assert f"planted fault at n={first}\n" in outs[0].err


def test_fork_only_while_all_n_keys_fit_the_ceilings(monkeypatch, capsys):
    golden = (GOLDEN / "variance_small.txt").read_text()
    cpus(monkeypatch, 2)
    states = sum(state_count_bound(3, n, 2) for n in (4, 7))
    units = sum(40 * (n + 8) for n in (4, 7))
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(experiments, "DEFAULT_STATE_CEILING", states)
    monkeypatch.setattr(experiments, "MAX_DRAWS", units)
    assert cli.main(VARIANCE_SMALL) == 0
    assert capsys.readouterr().out == golden
    assert len(forks) == 1
    refuse_forks(monkeypatch)
    for name, value in (("DEFAULT_STATE_CEILING", states - 1), ("MAX_DRAWS", units - 1)):
        with monkeypatch.context() as patch:
            patch.setattr(experiments, name, value)
            assert cli.main(VARIANCE_SMALL) == 0
            assert capsys.readouterr().out == golden


def test_no_fork_without_sched_getaffinity(monkeypatch, capsys):
    # macOS and Windows have neither os.sched_getaffinity nor a usable fork
    monkeypatch.delattr(os, "sched_getaffinity")
    refuse_forks(monkeypatch)
    assert cli.main(VARIANCE_SMALL) == 0
    assert capsys.readouterr() == ((GOLDEN / "variance_small.txt").read_text(), "")


def test_no_fork_while_another_python_thread_runs(monkeypatch, capsys):
    cpus(monkeypatch, 2)
    refuse_forks(monkeypatch)
    with another_thread():
        assert cli.main(VARIANCE_SMALL) == 0
    assert capsys.readouterr() == ((GOLDEN / "variance_small.txt").read_text(), "")


@pytest.mark.parametrize("argv,k,budget", [
    ("variance --seed 1 --n-values 5,1000", 3, 2),
    ("bio --seed 1 --n-values 5,1000", 4, 2),
    ("multinomial --seed 1 --trials 2 --n-values 1000 --budgets 0,1", 3, 1),
])
def test_every_solve_is_checked_before_any_work(monkeypatch, capsys, argv, k, budget):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(experiments, "spawn", refuse)
    monkeypatch.setattr(teacher, "solve", refuse)
    assert cli.main(argv.split()) == 3
    bound = state_count_bound(k, 1000, budget)
    assert capsys.readouterr() == ("", (
        f"error: state bound {bound} exceeds the ceiling {DEFAULT_STATE_CEILING} "
        f"for k={k}, n=1000, budget={budget}\n"))


class TestBounds:
    def test_rows_equal_the_golden_on_one_two_and_three_cpus(self, monkeypatch, capsys,
                                                             tmp_path):
        golden = (GOLDEN / "bounds_chunked.txt").read_text()
        real = experiments.monte_carlo_report
        log = tmp_path / "points"

        def report(n, m, b, trials, seed):
            with open(log, "a") as fh:  # appended, so a worker's points show too
                fh.write(f"{n} {m} {b} {os.getpid()}\n")
            return real(n, m, b, trials, seed)

        # the points this process runs, split longest-first by n
        here = {1: BOUNDS_GRID, 2: [p for p in BOUNDS_GRID if p[2] == 0],
                3: [(25, 1, 0), (25, 4, 3)]}
        monkeypatch.setattr(experiments, "monte_carlo_report", report)
        forks = count_forks(monkeypatch)
        for count in (1, 2, 3):
            cpus(monkeypatch, count)
            assert cli.main(BOUNDS_CHUNKED) == 0
            assert capsys.readouterr() == (golden, "")
            assert len(forks) == count - 1
            forks.clear()
            assert_no_children()
            ran = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
            log.unlink()
            assert sorted(point for *point, _ in ran) == [list(p) for p in BOUNDS_GRID]
            assert [tuple(point) for *point, pid in ran if pid == os.getpid()] == here[count]

    @pytest.mark.parametrize("faulty,error,code", [
        ({(25, 1, 3)}, ValueError, 4), ({(5, 1, 0)}, ValueError, 4),
        # the parent fails at (25, 4, 0) after the worker failed at (5, 4, 3)
        ({(5, 4, 3), (25, 4, 0)}, ValueError, 4),
        ({(5, 1, 3)}, CeilingExceededError, 3),
    ], ids=["worker", "parent", "both", "worker-ceiling"])
    def test_fault_in_any_point_fails_as_serial(self, monkeypatch, capsys, faulty, error,
                                                 code):
        real = experiments.monte_carlo_report

        def report(n, m, b, trials, seed):
            if (n, m, b) in faulty:
                raise error(f"planted fault at {(n, m, b)}")
            return real(n, m, b, trials, seed)

        monkeypatch.setattr(experiments, "monte_carlo_report", report)
        forks = count_forks(monkeypatch)
        outs = []
        for count in (1, 2):
            cpus(monkeypatch, count)
            assert cli.main(BOUNDS_CHUNKED) == code
            outs.append(capsys.readouterr())
            assert_no_children()
        assert len(forks) == 1
        assert outs[0] == outs[1]
        assert outs[0].out == ""
        first = next(point for point in BOUNDS_GRID if point in faulty)
        assert f"planted fault at {first}\n" in outs[0].err

    def test_fork_only_while_all_points_fit_max_trials(self, monkeypatch, capsys):
        golden = (GOLDEN / "bounds_chunked.txt").read_text()
        cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(experiments, "MAX_TRIALS", len(BOUNDS_GRID) * 20000)
        assert cli.main(BOUNDS_CHUNKED) == 0
        assert capsys.readouterr() == (golden, "")
        assert len(forks) == 1
        assert_no_children()

    @pytest.mark.parametrize("gate", [
        "one-cpu", "no-sched_getaffinity", "another-thread", "max-trials"])
    def test_no_fork(self, monkeypatch, capsys, gate):
        cpus(monkeypatch, 1 if gate == "one-cpu" else 2)
        if gate == "no-sched_getaffinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        if gate == "max-trials":
            monkeypatch.setattr(experiments, "MAX_TRIALS", len(BOUNDS_GRID) * 20000 - 1)
        refuse_forks(monkeypatch)
        with another_thread() if gate == "another-thread" else contextlib.nullcontext():
            assert cli.main(BOUNDS_CHUNKED) == 0
        assert capsys.readouterr() == ((GOLDEN / "bounds_chunked.txt").read_text(), "")
        assert_no_children()

    @pytest.mark.parametrize("argv,code,err", [
        ("--trials 1000 --n-values 5,2 --m-values 1 --budgets 3", 2,
         "budget must lie in [0, n*m]"),
        ("--trials 50000001 --n-values 5 --m-values 1,2 --budgets 0", 3,
         "50000001 trials exceed the ceiling 50000000 for a bounds grid point"),
        # the grid's trials fit the fork gate; the n=2000 point's draws do not
        ("--trials 1000000 --n-values 5,2000 --m-values 1 --budgets 0", 3,
         "1000000 trials at n=2000 take 2000000000 draws, above the ceiling 1250000000 "
         "for a bounds grid point"),
    ], ids=["bad-grid", "trials-ceiling", "draw-ceiling"])
    def test_every_point_is_checked_before_any_fork_or_draw(self, monkeypatch, capsys,
                                                             argv, code, err):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        cpus(monkeypatch, 2)
        refuse_forks(monkeypatch)
        monkeypatch.setattr(experiments, "spawn", refuse)
        monkeypatch.setattr(experiments, "monte_carlo_report", refuse)
        assert cli.main(["bounds", "--seed", "1", *argv.split()]) == code
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert_no_children()


# Run with ``python -c`` as two CPUs: plants a fault, then runs the CLI on
# the remaining arguments. The worker shares the process's stdout.
SHIM = ("import os, sys\nos.sched_getaffinity = lambda pid: {{0, 1}}\n"
        "from corrlearn import cli, experiments\n{fault}"
        "sys.exit(cli.main(sys.argv[1:]))\n")
BROKEN_PIPE = (
    "def write(fd, data):\n"
    "    raise BrokenPipeError(32, 'Broken pipe')\n"
    "os.write = write\n")
# fault -> (golden run, planted code)
FAULTS = {
    "none": ("variance_small", ""),
    # the worker's n=4 rows hold a lambda as their budget
    "unpicklable-rows": ("variance_small", (
        "real = experiments.replays\n"
        "def replays(streams, *args):\n"
        "    for budget, *rest in real(streams, *args):\n"
        "        yield (lambda: budget) if streams.shape[1] == 4 else budget, *rest\n"
        "experiments.replays = replays\n")),
    "broken-pipe": ("variance_small", BROKEN_PIPE),
    "bounds": ("bounds_chunked", ""),
    # the worker's budget-3 points report a lambda
    "bounds-unpicklable-report": ("bounds_chunked", (
        "real = experiments.monte_carlo_report\n"
        "def report(n, m, b, *args):\n"
        "    r = real(n, m, b, *args)\n"
        "    return (lambda: r) if b == 3 else r\n"
        "experiments.monte_carlo_report = report\n")),
    "bounds-broken-pipe": ("bounds_chunked", BROKEN_PIPE),
}
RUNS = {"variance_small": VARIANCE_SMALL, "bounds_chunked": BOUNDS_CHUNKED}


NO_RESULTS = r"internal error: RuntimeError: a worker \(exit status 1\) sent no readable results\n"


@pytest.mark.parametrize("fault,code,err", [
    ("none", 0, ""),
    ("unpicklable-rows", 4, NO_RESULTS),
    ("broken-pipe", 4, NO_RESULTS),
    ("bounds", 0, ""),
    ("bounds-unpicklable-report", 4, NO_RESULTS),
    ("bounds-broken-pipe", 4, NO_RESULTS),
])
def test_worker_always_exits_and_stdout_is_written_once(fault, code, err):
    golden, planted = FAULTS[fault]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", SHIM.format(fault=planted), *RUNS[golden]],
                         capture_output=True, text=True, env=env, timeout=120)
    expected = (GOLDEN / f"{golden}.txt").read_text() if code == 0 else ""
    assert (run.returncode, run.stdout) == (code, expected)
    assert re.fullmatch(err, run.stderr)
