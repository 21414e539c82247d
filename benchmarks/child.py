"""One CLI invocation in a fresh interpreter, started by ``run.py``.

Usage: python3 -I child.py ROOT RECORD_PATH TRACE -- ARGV...

Imports ``corrlearn`` from ROOT/src, refuses any other copy, runs
``corrlearn.cli.main(ARGV)`` with stdout going wherever the parent pointed
it, and writes a JSON record (import-done timestamp, time inside main,
host speed during import and during main, exit code, versions and, with
TRACE=1, the layer trace) to RECORD_PATH.

Host speed: on a shared host the CPU's speed can swing by nearly 2x within
a second (another tenant on the same core), so raw wall times of one
program repeat poorly. A timer interrupts the process every
``PROBE_PERIOD_S`` and times ``probe``, a fixed pure-Python loop that does
not touch ``corrlearn``. The mean of 1 / probe time over a window is the
host's speed in it; the parent rescales wall times by it.
"""

import json
import os
import signal
import sys
import time

PROBE_PERIOD_S = 0.02


def probe() -> float:
    """Seconds a fixed loop of dict, tuple and float work takes right now.

    The loop runs twice and only the second run is timed, so that the
    caches the program under test leaves cold for it do not count.
    """
    for _ in range(2):
        start = time.perf_counter()
        table = {}
        for i in range(1, 20):
            for j in range(20):
                table[i, j] = table.get((i - 1, j), 1.0) * 0.5 + (i * j) % 7 * 0.25
    return time.perf_counter() - start


class SpeedProbe:
    """Times ``probe`` on a timer signal; ``speed`` averages over a window."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def sample(self) -> None:
        self.samples.append((time.perf_counter(), probe()))

    def speed(self, since: float) -> float:
        """Mean 1 / probe time of the samples since ``since``; takes one more."""
        self.sample()
        window = [d for t, d in self.samples if t >= since]
        return sum(1.0 / d for d in window) / len(window)


def main() -> int:
    root, record_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py ROOT RECORD_PATH TRACE -- ARGV...")
    argv = sys.argv[5:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    speed = SpeedProbe()
    speed.start()
    started = time.perf_counter()

    import corrlearn.cli

    import_done = time.monotonic()
    import_speed = speed.speed(started)

    package_dir = os.path.realpath(os.path.dirname(corrlearn.__file__))
    if package_dir != os.path.realpath(os.path.join(src, "corrlearn")):
        print(f"corrlearn imported from {package_dir}, not from {src}", file=sys.stderr)
        return 90

    tracer = None
    if trace:
        sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
        import layers

        tracer = layers.Tracer()
        tracer.install()
        tracer.check_coverage()

    start = time.perf_counter()
    try:
        code = corrlearn.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code if isinstance(exc.code, int) else 2
    main_s = time.perf_counter() - start
    main_speed = speed.speed(start)
    speed.stop()
    sys.stdout.flush()

    import numpy

    record = {
        "import_done": import_done,
        "main_s": main_s,
        "import_speed": import_speed,
        "main_speed": main_speed,
        "exit": code,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "corrlearn_file": corrlearn.__file__,
    }
    if tracer is not None:
        tracer.check_coverage()
        record["trace"] = tracer.summary()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
