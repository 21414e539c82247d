"""Seeded experiment runners and their machine-readable outputs.

``EXPERIMENTS`` holds each experiment's help line, runner and parameter
defaults. A runner returns one table, ``(columns, rows)``: the column names
once, then one tuple per row, each column holding one type, so
``run_and_format`` serialises any experiment the same way.
Trial streams derive from (seed, structural indices) only, so repeat runs
emit byte-identical output. CSV uses a fixed header, 12-significant-digit
reals and LF line endings; JSON output carries the same rows as objects.
Only this module samples streams and replays the teacher on them; the
runners score with the models of ``batch``, ``bounds`` and ``likelihood``.

Independent jobs run in forked processes, one share per usable CPU,
split longest-first by cost: the n keys of ``variance`` and ``bio``, each
solved and replayed on its own (cost: its state bound), and the grid
points of ``bounds`` (cost: n, as a point draws trials * n values). Output
is identical to a serial run, and there is no flag. They fork only while
all the jobs at once stay within the ceilings one job may use (the state
ceiling and ``MAX_DRAWS`` for n keys, ``bounds.MAX_TRIALS`` trials for grid
points, so within about 1.5 GB), and run serially otherwise, where
``os.sched_getaffinity`` is missing (macOS, Windows) and while another
Python thread runs. Every n's solve and every grid point is checked
against its ceilings before the first draw.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import threading
from dataclasses import astuple, dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .batch import attainable_error, batch_correct
from .bounds import MAX_TRIALS, check_point, monte_carlo_report
from .core import (
    Categorical, ConfigError, CountVector, empirical_estimate, l1_error, sample_sequence, spawn,
)
from .dp import DEFAULT_STATE_CEILING, CeilingExceededError, check_state_bound
from .likelihood import CandidateSet, bio_terminal_reward, default_candidates, ml_estimate
from .mdp import l1_terminal_reward
from .teacher import distinct_rows, per_distinct_counts, replays

Table = tuple[tuple[str, ...], list[tuple]]  # (column names, one tuple per row)

# A sampled run's peak RSS grows by 10-36 bytes per draw unit: trials *
# (largest n + 8 + ROW_UNITS[format] * rows per trial), a trial's seed costing
# about 8 draws (VmHWM growth of multinomial at 20k-100k trials, n in {1, 5,
# 10, 25, 50}, 1 or 4 budgets, Python 3.11), so 25M units stay below 0.9 GB.
# A row grew VmHWM by 0.32-0.43 KB in CSV, 2.0-2.2 KB in JSON (10k-20k trials,
# n in {1, 5, 25}); the replay's index arrays, ~40 B per (trial, budget), fit
# the CSV charge (100k trials, n=50, budgets 0-3 grew 114 MiB).
MAX_DRAWS = 25_000_000
ROW_UNITS = {"csv": 8, "json": 64}


class Experiment(NamedTuple):
    help: str
    run: Callable[["ExperimentConfig"], Table]
    defaults: dict[str, Any]  # each parameter the experiment reads -> its default


# The only list of experiments: the CLI builds a subcommand per entry and a
# flag per parameter. Runners are called through lambdas so that a call finds
# the module's current binding, which the benchmark's layer tracer replaces.
EXPERIMENTS: dict[str, Experiment] = {
    "multinomial": Experiment(
        "per-trial original/online/batch errors, three-value source",
        lambda config: run_multinomial(config),
        dict(trials=50, n_values=(5,), budgets=(1,), theta0=(0.4, 0.3, 0.3))),
    "binomial": Experiment(
        "two-value source with the closed-form attainable error",
        lambda config: run_binomial(config),
        dict(trials=50, n_values=(10,), budgets=(1,), theta0=(0.5, 0.5))),
    "variance": Experiment(
        "corrected-estimate variance over an (n, budget) grid",
        lambda config: run_variance_sweep(config),
        dict(trials=2000, n_values=(5, 10, 15, 20, 25), budgets=(0, 1, 2),
             theta0=(0.4, 0.3, 0.3))),
    "bounds": Experiment(
        "Monte-Carlo verification of the variance-decrease bounds",
        lambda config: run_bounds(config),
        dict(trials=100_000, n_values=(5, 10, 25), m_values=(1, 2, 4),
             budgets=(0, 1, 3, 5))),
    "bio": Experiment(
        "model-identification misclassification rates",
        lambda config: run_bio(config),
        dict(trials=1000, n_values=(10,), budgets=(0, 1, 2), candidates=None,
             theta0_label=4)),
}
# config fields every experiment takes; the rest are experiment parameters
_COMMON_FIELDS = ("experiment", "seed", "output", "fmt")


class InvariantViolationError(RuntimeError):
    """An emitted record breaks a cross-module invariant."""


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    return _is_int(value) or isinstance(value, float)


def _comma_list(cast: Callable[[str], Any], what: str) -> Callable[[str], tuple]:
    def parse(text: str) -> tuple:
        try:
            return tuple(cast(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
    return parse


# (expected type, check, flag parser) per config field; None also passes
# where the default is None
FIELD_TYPES: dict[str, tuple[str, Callable[[Any], bool], Callable[[str], Any]]] = {
    **dict.fromkeys(("experiment", "candidates", "output", "fmt"),
                    ("a string", lambda v: isinstance(v, str), str)),
    **dict.fromkeys(("seed", "trials", "theta0_label"), ("an integer", _is_int, int)),
    **dict.fromkeys(("n_values", "budgets", "m_values"), (
        "a list of integers", lambda v: isinstance(v, tuple) and all(map(_is_int, v)),
        _comma_list(int, "integers"))),
    "theta0": (
        "a list of numbers", lambda v: isinstance(v, tuple) and all(map(_is_real, v)),
        _comma_list(float, "reals")),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run. A parameter field left None takes its default
    from ``EXPERIMENTS``; a field the experiment does not read must be None."""

    experiment: str
    seed: int
    trials: int | None = None
    n_values: tuple[int, ...] | None = None
    budgets: tuple[int, ...] | None = None
    m_values: tuple[int, ...] | None = None
    theta0: tuple[float, ...] | None = None
    candidates: str | None = None
    theta0_label: int | None = None
    output: str | None = None
    fmt: str = "csv"

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            what, check, _ = FIELD_TYPES[f.name]
            if not (check(value) or (value is None and f.default is None)):
                raise ConfigError(f"config field {f.name!r} must be {what}, got {value!r}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"expected one of {', '.join(EXPERIMENTS)}"
            )
        defaults = EXPERIMENTS[self.experiment].defaults
        for f in fields(self):
            if f.name not in (*_COMMON_FIELDS, *defaults) and getattr(self, f.name) is not None:
                raise ConfigError(f"the {self.experiment} experiment takes no {f.name!r}")
        for name, default in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        for name, least in (("n_values", 1), ("budgets", 0), ("m_values", 1)):
            values = getattr(self, name)
            if values == ():
                raise ConfigError(f"config field {name!r} must not be empty")
            if values is not None and min(values) < least:
                raise ConfigError(f"config field {name!r} entries must be at least {least}, "
                                  f"got {values!r}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.fmt!r}")
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if self.candidates is not None and not Path(self.candidates).is_file():
            raise ConfigError(f"candidate file {self.candidates!r} does not exist")

    @classmethod
    def from_file(cls, path: str | Path, **overrides: Any) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        named, chosen = data.get("experiment"), overrides.get("experiment")
        if None not in (named, chosen) and named != chosen:
            raise ConfigError(
                f"config {path} is for the {named} experiment, not the {chosen} experiment"
            )
        merged = {**data, **{k: v for k, v in overrides.items() if v is not None}}
        return cls(**_normalise(merged))


def _normalise(data: dict[str, Any]) -> dict[str, Any]:
    out = dict(data)
    for key in ("n_values", "budgets", "m_values", "theta0"):
        if isinstance(out.get(key), list):
            out[key] = tuple(out[key])
    return out


def check_records(budget: int, original: Sequence[float], online: Sequence[float],
                  batch: Sequence[float]) -> None:
    """Raise ``InvariantViolationError`` for the first trial of a budget's
    per-trial errors that is negative or has a batch error above its
    online error."""
    errors = np.array((original, online, batch), dtype=float)
    negative = errors.min(axis=0) < 0
    bad = np.flatnonzero(negative | (errors[2] > errors[1] + 1e-12))
    if bad.size:
        trial = int(bad[0])
        if negative[trial]:
            raise InvariantViolationError("negative error in a record")
        raise InvariantViolationError(
            f"batch error {batch[trial]} exceeds online error "
            f"{online[trial]} (trial {trial}, budget {budget})"
        )


def _theta(config: ExperimentConfig) -> Categorical:
    try:
        return Categorical(config.theta0)
    except ValueError as exc:
        raise ConfigError(f"invalid theta0: {exc}") from exc


def _draw_units(config: ExperimentConfig, n: int, rows_per_trial: int = 0) -> int:
    return config.trials * (n + 8 + ROW_UNITS[config.fmt] * rows_per_trial)


def _check_draws(config: ExperimentConfig, rows_per_trial: int = 0) -> None:
    """Raise ``CeilingExceededError`` if the run's draw units pass ``MAX_DRAWS``."""
    units = _draw_units(config, max(config.n_values), rows_per_trial)
    if units > MAX_DRAWS:
        raise CeilingExceededError(
            f"{config.trials} trials at n up to {max(config.n_values)} take {units} "
            f"draw units, above the ceiling {MAX_DRAWS}"
        )


def _run_correction_records(config: ExperimentConfig, with_attainable: bool) -> Table:
    theta0 = _theta(config)
    if len(config.n_values) != 1:
        raise ConfigError(
            f"the {config.experiment} experiment takes a single n, "
            f"got {config.n_values}"
        )
    (n,) = config.n_values
    _check_draws(config, rows_per_trial=len(config.budgets))
    check_state_bound(theta0.k, n, max(config.budgets))
    streams = sample_sequence(theta0, n, spawn(config.seed, [(t,) for t in range(config.trials)]))
    originals = distinct_rows(np.column_stack(
        [np.count_nonzero(streams == v, axis=1) for v in range(theta0.k)]))

    def error(counts: CountVector) -> float:
        return l1_error(empirical_estimate(counts), theta0)

    error_original = per_distinct_counts(error, originals)
    columns = ("experiment", "seed", "trial", "budget", "error_original", "error_online",
               *(("error_attainable",) if with_attainable else ()), "error_batch",
               "budget_spent")
    rows = []
    for budget, counts, spent in replays(streams, theta0, l1_terminal_reward(theta0),
                                         config.budgets):
        online = per_distinct_counts(error, counts)
        error_batch, attainable = zip(*per_distinct_counts(lambda c: (
            batch_correct(c, theta0, budget).error,
            attainable_error(n, theta0, budget, empirical_estimate(c))
            if with_attainable else None,
        ), originals))
        check_records(budget, error_original, online, error_batch)
        per_column = (error_original, online, *((attainable,) if with_attainable else ()),
                      error_batch, spent.tolist())
        rows.extend(zip(repeat(config.experiment), repeat(config.seed), range(config.trials),
                        repeat(budget), *per_column))
    return columns, rows


def run_multinomial(config: ExperimentConfig) -> Table:
    """Per-trial original/online/batch errors for a single n."""
    return _run_correction_records(config, with_attainable=False)


def run_binomial(config: ExperimentConfig) -> Table:
    """Two-value variant, with the closed-form attainable error alongside."""
    if _theta(config).k != 2:
        raise ConfigError("the binomial experiment needs a two-value theta0")
    return _run_correction_records(config, with_attainable=True)


def run_variance_sweep(config: ExperimentConfig) -> Table:
    """Sample variance of the corrected estimate per (n, budget) cell.

    ``var_first`` is the variance of the estimate's first coordinate (the
    documented headline number); ``var_total`` sums the per-coordinate
    variances. Streams are shared across budgets at each n.
    """
    if config.trials < 2:
        raise ConfigError("the variance experiment needs at least 2 trials")
    theta0 = _theta(config)
    _check_draws(config)
    reward = l1_terminal_reward(theta0)

    def cells(n: int) -> list[tuple]:
        seeds = spawn(config.seed, [(n, t) for t in range(config.trials)])
        streams = sample_sequence(theta0, n, seeds)
        rows = []
        for budget, counts, _ in replays(streams, theta0, reward, config.budgets):
            estimates = np.array(
                per_distinct_counts(lambda c: empirical_estimate(c).probs, counts))
            per_coord = estimates.var(axis=0, ddof=1)
            rows.append((n, budget, config.trials, float(per_coord[0]), float(per_coord.sum())))
        return rows

    columns = ("n", "budget", "trials", "var_first", "var_total")
    return columns, [row for rows in _per_n(config, theta0.k, cells) for row in rows]


def run_bounds(config: ExperimentConfig) -> Table:
    """One Monte-Carlo bound report per (n, m, budget) grid point."""
    grid = [(n, m, budget)
            for n in config.n_values for m in config.m_values for budget in config.budgets]
    for point in grid:  # every point is checked before the first draw
        check_point(*point, config.trials)
    # a point draws trials * n values; the points fork only while all of
    # them at once stay within the trials one point may take
    reports = _fan_out(lambda job: monte_carlo_report(*job[0], config.trials, job[1]),
                       list(zip(grid, spawn(config.seed, grid).tolist())),
                       [n for n, _, _ in grid],
                       _shares(len(grid) * config.trials <= MAX_TRIALS))
    # BoundReport's fields, in order
    columns = ("N", "M", "B", "trials", "bound_abs", "bound_ratio_paper", "var_orig",
               "var_corr", "ratio")
    return columns, [astuple(r) for r in reports]


def run_bio(config: ExperimentConfig) -> Table:
    """Share of trials per (n, budget) cell whose final counts ``ml_estimate``
    does not label ``theta0_label``. Streams are shared across budgets at each n."""
    candidates = (
        CandidateSet.from_file(config.candidates)
        if config.candidates else default_candidates()
    )
    label = config.theta0_label
    if label not in candidates.labels():
        raise ConfigError(f"theta0_label {label} not among {candidates.labels()}")
    _check_draws(config)
    true_dist = candidates.by_label(label).action_dist
    reward = bio_terminal_reward(label, candidates)

    def cells(n: int) -> list[tuple]:
        (seed,) = spawn(config.seed, [(n,)]).tolist()
        streams = sample_sequence(true_dist, n, spawn(seed, [(t,) for t in range(config.trials)]))
        rows = []
        for budget, counts, _ in replays(streams, true_dist, reward, config.budgets):
            labels = per_distinct_counts(lambda c: ml_estimate(c, candidates), counts)
            rows.append((n, budget, config.trials,
                         sum(x != label for x in labels) / config.trials))
        return rows

    columns = ("n", "budget", "trials", "misclassification_rate")
    return columns, [row for rows in _per_n(config, true_dist.k, cells) for row in rows]


def _per_n(config: ExperimentConfig, k: int, job: Callable[[int], Any]) -> list:
    """``[job(n) for n in config.n_values]``, each n a solve over k outcomes
    up to the largest budget plus its draws. Every n's state bound is
    checked first; the n keys then fan out while all of them at once stay
    within the state and draw ceilings."""
    costs = [check_state_bound(k, n, max(config.budgets)) for n in config.n_values]
    units = sum(_draw_units(config, n) for n in config.n_values)
    return _fan_out(job, config.n_values, costs,
                    _shares(sum(costs) <= DEFAULT_STATE_CEILING and units <= MAX_DRAWS))


def _shares(fits: bool) -> int:
    """How many processes a fan-out may use: one per usable CPU if all its
    items at once ``fits`` the caller's ceilings, else one. It is one where
    ``os.sched_getaffinity`` is missing (macOS lacks it, Windows lacks it
    and ``os.fork``) and while another Python thread runs, since a forked
    worker could inherit a lock that thread holds."""
    if fits and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        return len(os.sched_getaffinity(0))
    return 1


Failure = tuple[int, BaseException]  # (item index, what it raised)


def _fan_out(f: Callable[[Any], Any], items: Sequence[Any], costs: Sequence[int],
             shares: int) -> list:
    """``[f(x) for x in items]`` for independent items, split longest-first
    by ``costs`` over ``shares`` processes (Graham's LPT rule). This
    process runs the first share, and a forked worker runs each other one
    and pickles its results back through a pipe. Every share runs its items
    in item order, and the failure of the lowest item is raised, so a fault
    surfaces as it would from a serial loop. Every worker is reaped before
    this returns or raises."""
    if shares < 2 or len(items) < 2:
        return [f(x) for x in items]
    parts: list[list[int]] = [[] for _ in range(shares)]
    loads = [0] * shares
    for i in sorted(range(len(items)), key=lambda i: -costs[i]):
        least = loads.index(min(loads))
        parts[least].append(i)
        loads[least] += costs[i]
    own, *others = map(sorted, parts)
    workers: list[tuple[int, int, list[int]]] = []  # (pid, read end, share)
    outcomes: list[tuple[list, Failure | None]] = []
    try:
        for part in filter(None, others):
            try:
                workers.append((*_fork_share(f, items, part), part))
            except OSError:  # no process to spare: run the share here
                own = sorted(own + part)
        outcomes.append(_run_share(f, items, own))
    finally:
        for pid, fd, part in workers:
            outcomes.append(_collect(pid, fd, part))
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results: list = [None] * len(items)
    for (done, _), part in zip(outcomes, [own, *(w[2] for w in workers)]):
        for i, result in zip(part, done):
            results[i] = result
    return results


def _run_share(f: Callable[[Any], Any], items: Sequence[Any],
               part: list[int]) -> tuple[list, Failure | None]:
    """f of the items at the sorted indices ``part``, up to the first failure."""
    done = []
    for i in part:
        try:
            done.append(f(items[i]))
        except Exception as exc:
            return done, (i, exc)
    return done, None


def _fork_share(f: Callable[[Any], Any], items: Sequence[Any],
                part: list[int]) -> tuple[int, int]:
    """Fork a worker that runs ``part``; returns its pid and the read end of
    the pipe that carries its pickled outcome."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    # The worker never returns into the caller's stack and never flushes
    # the stdio buffers it inherited: every path ends in ``os._exit``.
    code = 1
    try:
        os.close(read)
        view = memoryview(pickle.dumps(_run_share(f, items, part)))
        while view:
            view = view[os.write(write, view):]
        code = 0
    finally:
        os._exit(code)


def _collect(pid: int, fd: int, part: list[int]) -> tuple[list, Failure | None]:
    """Read a worker's outcome to the end of its pipe, then reap it."""
    try:
        with open(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    try:
        return pickle.loads(data)
    except Exception:
        return [], (part[0], RuntimeError(
            f"a worker (exit status {os.waitstatus_to_exitcode(status)}) "
            "sent no readable results"))


def format_csv(columns: Sequence[str], rows: Sequence[tuple]) -> str:
    """Floats as ``%.12g`` (the bytes of ``format(v, ".12g")``), the rest as
    ``str``, by one template built from the first row's types: each column
    holds one type."""
    lines = [",".join(columns)]
    if rows:
        template = ",".join("%.12g" if isinstance(v, float) else "%s" for v in rows[0])
        lines += [template % row for row in rows]
    return "\n".join(lines) + "\n"


def run_and_format(config: ExperimentConfig) -> str:
    """Run the configured experiment and return its serialised output."""
    columns, rows = EXPERIMENTS[config.experiment].run(config)
    if config.fmt == "json":
        records = [dict(zip(columns, row)) for row in rows]
        del rows  # the tuples go before the encoder's chunks peak
        return json.dumps(records, indent=2) + "\n"
    return format_csv(columns, rows)


def write_output(text: str, path: str | None) -> None:
    if path is None:
        print(text, end="")
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
