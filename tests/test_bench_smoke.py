"""A quick traced benchmark run: the harness in bench/ still drives the CLI
and every output passes its checks."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_quick_traced_bench_run():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "knot_invariants",
         "--seed", "1", "--seconds", "0", "--quick", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
