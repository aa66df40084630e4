"""The benchmark's smoke mode: every workload runs once on tiny inputs,
plain and traced, and its result lines have the declared shape."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
pytest.importorskip("jsonschema", exc_type=ImportError)  # bench/run.py validates every CLI document
pytest.importorskip("scipy", exc_type=ImportError)  # bench/run.py records its version


@pytest.mark.parametrize("workload", ["solve-large", "verify-sweep", "homotopy-seed"])
def test_smoke_run_is_ok(workload, child_env):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, env=child_env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line == {"smoke": workload, "ok": True, "problems": []}
