"""corrlearn benchmark: fixed CLI workloads, end to end and layer by layer.

Usage, from the repository root:

    python3 benchmarks/run.py --workload solve|sweep|trials [--seed 7]
        [--seconds 35] [--trace 0|1] [--record]

Each CLI invocation runs ``corrlearn.cli.main(argv)`` in its own fresh
interpreter (``child.py``), one at a time, in a fresh temporary working
directory, with numeric libraries held to one thread: this is how a user
runs the CLI, so nothing cached in memory survives from one invocation to
the next. A pass runs every invocation of the workload once; passes repeat
until ``--seconds`` have gone by.

``--trace 0`` reports the end-to-end metrics:

- ``wall_norm_s``: time inside ``main(argv)`` at the reference host speed,
  summed over the workload's invocations, median over passes;
- ``setup_s``: time from spawning the interpreter until ``corrlearn.cli``
  is imported (warm ``.pyc`` cache) at the reference host speed, median
  over invocations;
- ``peak_rss_mb``: largest child peak RSS (``getrusage``) in MiB.

Both times are rescaled to one host speed because a shared host's CPU
speed swings by nearly 2x within seconds. The child times a fixed
pure-Python probe every 20 ms (``child.py``); a time measured at a mean
probe speed ``v`` (1 / probe seconds) is reported as
``time * v * REFERENCE_PROBE_S``, the time it would take where the probe
takes ``REFERENCE_PROBE_S``. The raw wall times are in the detail record.

The failure fraction is ``failed / attempted`` in the result line. An
invocation fails if it exits non-zero, if its stdout differs from the
reference digest recorded for the same argv in ``reference.json`` or from
its own first pass, or if the output breaks a structural check.

``--trace 1`` alternates untraced and traced passes (``layers.py``) and
reports the per-layer metrics: exact work counters, which must repeat
exactly between traced passes, each layer's self time as a share of the
traced time inside ``main``, and the tracing overhead.

``--record`` runs one pass and stores its digests in ``reference.json``;
run it only on the commit whose outputs are the reference.

Before the result line the benchmark prints a detail record (machine
context, every digest, every sample, absolute span times).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
REFERENCE = BENCH_DIR / "reference.json"
WORK_DIR = BENCH_DIR / ".work"

DEFAULT_SEED = 7
# Probe time that defines the reference host speed; about the probe's
# time on an unloaded 2-vCPU Xeon VM.
REFERENCE_PROBE_S = 1e-4
# The whole run, passes included, stays under the 180 s a run may take.
RUN_CAP_S = 165.0

# Why each workload: see README.md next to this file.
WORKLOADS = {
    "solve": lambda seed: [
        ["solve", "--n", "25", "--budget", "2", "--theta0", "0.4,0.3,0.3"],
        ["solve", "--n", "15", "--budget", "2", "--theta0", "0.4,0.3,0.2,0.1"],
    ],
    "sweep": lambda seed: [
        ["variance", "--seed", str(seed), "--n-values", "5,10,15,20,25", "--budgets", "0,1,2"],
        ["bio", "--seed", str(seed)],
    ],
    "trials": lambda seed: [
        ["multinomial", "--seed", str(seed), "--trials", "2000", "--n-values", "10",
         "--budgets", "1,2"],
        ["binomial", "--seed", str(seed), "--trials", "2000", "--n-values", "40",
         "--budgets", "1,3"],
        ["bounds", "--seed", str(seed), "--n-values", "5,10,25", "--m-values", "1,2,4",
         "--budgets", "0,1,3,5"],
    ],
}

# Spans whose self time is reported as a share of the traced time in main.
SELF_SHARES = (
    "dp.solve", "dp.policy_dump", "mdp.reward", "teacher.run_online",
    "batch.batch_correct", "batch.e_min", "batch.attainable_error",
    "bounds.monte_carlo_report", "likelihood.ml_estimate",
    "likelihood.misclassification_experiment", "core.sample_sequence",
    "experiments.run_and_format", "experiments.format_csv", "cli.main",
)
CALL_COUNTS = (
    "dp.solve", "mdp.reward", "teacher.run_online", "batch.batch_correct",
    "batch.e_min", "bounds.monte_carlo_report", "likelihood.ml_estimate",
    "core.sample_sequence",
)
WORK_COUNTERS = (
    "dp.solve.keys", "dp.policy_dump.rows", "mdp.reward.distinct",
    "teacher.run_online.steps", "teacher.run_online.budget_spent",
    "bounds.monte_carlo_report.points", "bounds.monte_carlo_report.draws",
)


# -- one invocation -------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its own rusage; kill it after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return rusage, False
            time.sleep(0.005)
    finally:
        if proc.returncode is None:
            proc.kill()
            _, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return rusage, True


def invoke(argv: list[str], trace: bool, timeout: float) -> dict:
    """Run one CLI invocation in a fresh interpreter and working directory."""
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        record_path = tmp / "record.json"
        cmd = [sys.executable, "-I", str(CHILD), str(ROOT), str(record_path),
               "1" if trace else "0", "--", *argv]
        with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=tmp, stdout=out, stderr=err, env=_child_env())
            rusage, timed_out = _wait(proc, timeout)
        stdout = (tmp / "stdout").read_bytes()
        stderr = (tmp / "stderr").read_text(errors="replace")
        record = json.loads(record_path.read_text()) if record_path.exists() else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "exit": proc.returncode,
        "timed_out": timed_out,
        "maxrss_mb": rusage.ru_maxrss / 1024.0,
        "sha256": hashlib.sha256(stdout).hexdigest(),
        "stdout": stdout,
        "stderr_tail": stderr[-2000:],
        "record": record,
    }
    if record is not None:
        result["raw_setup_s"] = record["import_done"] - spawned
        result["raw_main_s"] = record["main_s"]
        result["setup_s"] = result["raw_setup_s"] * record["import_speed"] * REFERENCE_PROBE_S
        result["main_s"] = record["main_s"] * record["main_speed"] * REFERENCE_PROBE_S
    return result


# -- output checks ----------------------------------------------------------

_POLICY_ROW = re.compile(r"(\d+),(\d+(?:\|\d+)*),(\d+),(\d+),(keep|change->\d+)")
_CSV_HEADERS = {
    "multinomial": "experiment,seed,trial,budget,error_original,error_online,"
                   "error_batch,budget_spent",
    "binomial": "experiment,seed,trial,budget,error_original,error_online,"
                "error_attainable,error_batch,budget_spent",
    "variance": "n,budget,trials,var_first,var_total",
    "bio": "n,budget,trials,misclassification_rate",
    "bounds": "N,M,B,trials,bound_abs,bound_ratio_paper,var_orig,var_corr,ratio",
}


def _flag(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def check_output(argv: list[str], text: str) -> str | None:
    """Structural check of one invocation's stdout; returns a problem or None.

    It holds for every seed, so outputs at seeds without a reference digest
    are still checked: shape, row counts and invariants the CLI promises.
    """
    command = argv[0]
    lines = text.split("\n")
    if lines[-1] != "":
        return "output does not end with a newline"
    lines = lines[:-1]
    if command == "solve":
        n, budget = int(_flag(argv, "--n", "0")), int(_flag(argv, "--budget", "0"))
        k = len(_flag(argv, "--theta0", "").split(","))
        for line in lines:
            match = _POLICY_ROW.fullmatch(line)
            if match is None:
                return f"malformed policy row {line!r}"
            stage, counts = int(match[1]), _ints(match[2].replace("|", ","))
            if len(counts) != k or sum(counts) != stage or not 1 <= stage <= n \
                    or int(match[3]) > budget or not 0 <= int(match[4]) < k:
                return f"policy row outside the (k, n, budget) lattice: {line!r}"
        return None if lines else "empty policy"
    if lines[0] != _CSV_HEADERS[command]:
        return f"unexpected header {lines[0]!r}"
    if any(line.count(",") != lines[0].count(",") for line in lines[1:]):
        return "a row's column count differs from the header's"
    skip = 1 if command in ("multinomial", "binomial") else 0  # the experiment name
    rows = [[float(x) for x in line.split(",")[skip:]] for line in lines[1:]]
    if any(v != v for row in rows for v in row):
        return "NaN in output"
    if command in ("multinomial", "binomial"):
        budgets = _ints(_flag(argv, "--budgets", "1"))
        expected = int(_flag(argv, "--trials", "50")) * len(budgets)
        for row in rows:
            budget, spent = row[2], row[-1]
            errors = row[3:-1]
            if min(errors) < 0 or spent > budget or budget not in budgets:
                return f"record breaks an invariant: {row}"
            if row[-2] > row[4] + 1e-9:  # batch error never above online error
                return f"batch error above online error: {row}"
    elif command == "variance":
        expected = len(_ints(_flag(argv, "--n-values", "5,10,15,20,25"))) \
            * len(_ints(_flag(argv, "--budgets", "0,1,2")))
        if any(row[3] < 0 or row[3] > row[4] + 1e-12 for row in rows):
            return "variance column breaks 0 <= var_first <= var_total"
    elif command == "bio":
        expected = len(_ints(_flag(argv, "--budgets", "0,1,2")))
        if any(not 0.0 <= row[3] <= 1.0 for row in rows):
            return "misclassification rate outside [0, 1]"
    else:  # bounds
        expected = len(_ints(_flag(argv, "--n-values", "5,10,25"))) \
            * len(_ints(_flag(argv, "--m-values", "1,2,4"))) \
            * len(_ints(_flag(argv, "--budgets", "0,1,3,5")))
        if any(min(row[4:8]) < 0 for row in rows):
            return "negative bound or variance"
    if len(rows) != expected:
        return f"{len(rows)} rows, expected {expected}"
    return None


# -- context ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    package = ROOT / "src" / "corrlearn"
    for path in sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_context(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


# -- the run -----------------------------------------------------------------


class Run:
    """Invocations of one workload, their correctness and their samples."""

    def __init__(self, argvs: list[list[str]], reference: dict, started: float) -> None:
        self.argvs = argvs
        self.reference = reference
        self.started = started
        self.first_digest: dict[str, str] = {}
        self.checked: dict[str, str | None] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[dict]] = {" ".join(a): [] for a in argvs}

    def timeout(self) -> float:
        return max(1.0, RUN_CAP_S - (time.monotonic() - self.started))

    def one_pass(self, trace: bool) -> list[dict]:
        results = []
        for argv in self.argvs:
            result = invoke(argv, trace, self.timeout())
            self.attempted += 1
            problem = self._problem(argv, result)
            if problem:
                self.failures.append(f"{' '.join(argv)}: {problem}")
            result["ok"] = problem is None
            result["trace"] = trace
            self.samples[" ".join(argv)].append(result)
            results.append(result)
        return results

    def _problem(self, argv: list[str], result: dict) -> str | None:
        key, digest = " ".join(argv), result["sha256"]
        if result["timed_out"]:
            return "timed out"
        if result["exit"] != 0 or result["record"] is None:
            return f"exit code {result['exit']}: {result['stderr_tail'].strip()[-300:]}"
        ref = self.reference.get(key)
        if ref is not None and (ref["exit"], ref["sha256"]) != (0, digest):
            return f"stdout sha256 {digest} differs from the reference {ref['sha256']}"
        first = self.first_digest.setdefault(key, digest)
        if digest != first:
            return f"stdout sha256 {digest} differs from the first pass ({first})"
        if digest not in self.checked:
            try:
                self.checked[digest] = check_output(argv, result["stdout"].decode())
            except (ValueError, IndexError, UnicodeDecodeError) as exc:
                self.checked[digest] = f"unparsable output: {exc!r}"
        return self.checked[digest]

    def detail(self) -> dict:
        out = {}
        for key, samples in self.samples.items():
            ref = self.reference.get(key)
            out[key] = {
                "sha256": sorted({s["sha256"] for s in samples}),
                "reference_sha256": ref["sha256"] if ref else None,
                "exit": [s["exit"] for s in samples],
                "traced": [s["trace"] for s in samples],
                "main_s": [s.get("main_s") for s in samples],
                "raw_main_s": [s.get("raw_main_s") for s in samples],
                "setup_s": [s.get("setup_s") for s in samples],
                "raw_setup_s": [s.get("raw_setup_s") for s in samples],
                "maxrss_mb": [s["maxrss_mb"] for s in samples],
            }
        return out


def _pass_wall(results: list[dict], key: str = "main_s") -> float | None:
    if not all(r["ok"] for r in results):
        return None
    return sum(r[key] for r in results)


def end_to_end(passes: list[list[dict]]) -> dict:
    passed = [p for p in passes if _pass_wall(p) is not None]
    walls = [_pass_wall(p) for p in passed]
    raw_walls = [_pass_wall(p, "raw_main_s") for p in passed]
    setups = [r["setup_s"] for p in passes for r in p if "setup_s" in r]
    rss = [r["maxrss_mb"] for p in passes for r in p]
    if not walls:
        return {}
    return {
        "wall_norm_s": {"value": statistics.median(walls), "unit": "s", "samples": len(walls),
                        "raw_wall_s": statistics.median(raw_walls)},
        "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups)},
        "peak_rss_mb": {"value": max(rss), "unit": "MB", "samples": len(rss)},
    }


def per_layer(
    argvs: list[list[str]], untraced: list[list[dict]], traced: list[list[dict]]
) -> tuple[dict, dict]:
    """Per-layer metrics from traced passes; also returns the detail part."""
    walls = [_pass_wall(p) for p in untraced]
    traced_walls = [_pass_wall(p) for p in traced]
    traced_raw = [_pass_wall(p, "raw_main_s") for p in traced]
    if None in walls or None in traced_walls or not traced:
        return {}, {}
    summaries = [[r["record"]["trace"] for r in p] for p in traced]

    def exact(summary: list[dict]) -> dict:
        counts: dict[str, int] = {}
        for s in summary:
            for name, span in s["spans"].items():
                counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + span["calls"]
            for name, value in s["counters"].items():
                counts[name] = counts.get(name, 0) + value
        return counts

    counts = exact(summaries[0])
    if any(exact(s) != counts for s in summaries[1:]):
        return {}, {"problem": "work counters differ between traced passes",
                    "counters": [exact(s) for s in summaries]}

    def self_s(summary: list[dict], name: str) -> float:
        return sum(s["spans"].get(name, {}).get("self_s", 0.0) for s in summary)

    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for name in CALL_COUNTS:
        put(f"{name}.calls", counts.get(f"{name}.calls", 0), "count")
    for name in WORK_COUNTERS:
        put(name, counts.get(name, 0), "count")

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    put("dp.solve.per_key", ratio("dp.solve.calls", "dp.solve.keys"), "calls/key")
    put("mdp.reward.useful_ratio", ratio("mdp.reward.distinct", "mdp.reward.calls"), "ratio")
    put("bounds.monte_carlo_report.per_point",
        ratio("bounds.monte_carlo_report.calls", "bounds.monte_carlo_report.points"),
        "calls/point")
    for name in SELF_SHARES:
        shares = [self_s(s, name) / w for s, w in zip(summaries, traced_raw)]
        put(f"{name}.self_share", statistics.median(shares), "frac")
    traced_wall = statistics.median(traced_walls)
    put("trace.main_s", traced_wall, "s")
    put("trace.overhead_frac", traced_wall / statistics.median(walls) - 1.0, "frac")

    spans: dict[str, list[float]] = {}
    for summary in summaries:
        for name in {n for s in summary for n in s["spans"]}:
            spans.setdefault(name, []).append(self_s(summary, name))
    detail = {
        "counters": counts,
        "counters_per_invocation": {
            " ".join(argv): exact([s]) for argv, s in zip(argvs, summaries[0])
        },
        "self_s_median": {n: statistics.median(v) for n, v in sorted(spans.items())},
        "edges": [s["edges"] for s in summaries[0]],
        "missing": sorted({m for s in summaries[0] for m in s["missing"]}),
        "untraced_wall_norm_s": walls,
        "traced_wall_norm_s": traced_walls,
    }
    return metrics, detail


def _load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())["invocations"]


def record_reference(argvs: list[list[str]], run: Run) -> None:
    results = run.one_pass(trace=False)
    if run.failures:
        raise SystemExit("not recording a failing pass:\n" + "\n".join(run.failures))
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {
        "recorded_at": _git_commit(), "invocations": {}}
    for argv, result in zip(argvs, results):
        data["invocations"][" ".join(argv)] = {"exit": result["exit"], "sha256": result["sha256"]}
    data["invocations"] = dict(sorted(data["invocations"].items()))
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this pass's digests as the reference")
    args = parser.parse_args()
    # On SIGTERM, unwind so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "corrlearn" / "cli.py").is_file():
        print(f"no corrlearn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    context = machine_context(args.seed)
    argvs = WORKLOADS[args.workload](args.seed)
    run = Run(argvs, _load_reference(), started)

    # Warm the .pyc cache and prove the import resolves to this checkout.
    warm = invoke(["--help"], bool(args.trace), run.timeout())
    if warm["exit"] != 0 or warm["record"] is None:
        print(f"warm-up invocation failed: {warm['stderr_tail']}", file=sys.stderr)
        return 2
    context.update(numpy=warm["record"]["numpy"], corrlearn_file=warm["record"]["corrlearn_file"])
    if args.record:
        record_reference(argvs, run)
        return 0

    # Start another pass only while it would end, by the last pass's
    # length, no more than half a pass after the deadline: a run then
    # lasts about --seconds on every workload.
    deadline = time.monotonic() + args.seconds
    untraced: list[list[dict]] = []
    traced: list[list[dict]] = []
    last_pass = 0.0
    while not untraced or time.monotonic() + last_pass / 2 < deadline:
        pass_start = time.monotonic()
        untraced.append(run.one_pass(trace=False))
        if args.trace:
            traced.append(run.one_pass(trace=True))
        last_pass = time.monotonic() - pass_start
        if time.monotonic() - started + 2 * last_pass > RUN_CAP_S:
            break

    detail = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "context": context, "invocations": run.detail(), "failures": run.failures,
              "fail_frac": len(run.failures) / run.attempted}
    if args.trace:
        metrics, detail["layers"] = per_layer(argvs, untraced, traced)
    else:
        metrics = end_to_end(untraced)
    detail["metrics"] = metrics
    print(json.dumps(detail, indent=1))
    print(json.dumps({
        "correct": not run.failures and bool(metrics),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
