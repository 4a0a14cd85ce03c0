"""A quick traced benchmark run of each workload: the harness in bench/
still drives the CLI, every output passes its checks, every traced name
still resolves and the outputs hash to the pinned digest.  A change to the
workloads updates the pins."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the record's output_digest of each quick run at seed 1, the same on
# Python 3.10 to 3.13
DIGESTS = {
    "knot_invariants": "4f12e9d3a7ea25cf1028b8b94df6890fe3c2d3081e703302e8a24873a44a985b",
    "alexander": "bbde13135d31d1f9ba683ef7ca64a5c8acbd047aa5c908e0b2a093feace3931e",
    "cohomology": "24602f2825f3f2542694a75f7c0be5279e45e02a59895e4fed6df08daf0b64b7",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_quick_traced_bench_run(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--quick", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    record, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert record["output_digest"] == DIGESTS[workload]
