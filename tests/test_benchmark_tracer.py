"""The benchmark's layer tracer (``benchmarks/layers.py``) still finds
every function it wraps, so traced runs report work counters instead of
``missing`` entries after a rename."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from layers import Tracer
tracer = Tracer()
tracer.install()
tracer.check_coverage()
from corrlearn import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["multinomial", "--seed", "1", "--trials", "3"])
summary = tracer.summary()
print(json.dumps({"code": code, "missing": summary["missing"],
                  "calls": {name: s["calls"] for name, s in summary["spans"].items()}}))
"""


def test_tracer_covers_the_package():
    # a fresh interpreter, so the wrapped bindings never reach other tests
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "benchmarks")],
        capture_output=True, text=True, check=True,
    )
    out = json.loads(result.stdout)
    assert out["code"] == 0
    assert out["missing"] == []
    assert out["calls"]["dp.solve"] == 1
