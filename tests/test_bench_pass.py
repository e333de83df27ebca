"""One traced benchmark pass per workload, run as the harness runs it.

`tgbench/child.py --mode pass --trace 1` runs the workload, checks its
outputs against `tgbench/reference.json` and, traced, adds the harness's
self-check that every required layer recorded a call.  A refactor that
drops or bypasses a layer the harness wraps fails that self-check, which
resolving the bound names (test_bench_bindings) cannot see.  The pass runs
in a subprocess with bytecode writing off, so nothing under tgbench/ is
written; its outputs go to the test's temporary directory.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["quantum-sweep", "lower-symbol", "classical-mc"])
def test_traced_pass_checks_hold(tmp_path, workload):
    result = tmp_path / "r.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, os.path.join(ROOT, "tgbench", "child.py"),
                    "--workload", workload, "--seed", "1", "--mode", "pass", "--trace", "1",
                    "--out", str(tmp_path), "--result", str(result)],
                   env=env, cwd=ROOT, check=True, timeout=300)
    record = json.loads(result.read_text(encoding="utf-8"))
    assert "error" not in record, record.get("error")
    checks = record["checks"]
    assert checks
    failed = [name for name, ok in checks if not ok]
    assert failed == [], f"{workload} failed {len(failed)} of {len(checks)} checks: {failed}"
