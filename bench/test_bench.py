"""Quick self-test of the benchmark (tiny rounds, a few seconds each).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            record, result = (json.loads(x) for x in proc.stdout.splitlines()[-2:])
            out[workload, trace] = record, result
    return out


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_and_checks_pass(runs, workload, trace, section):
    record, result = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_outputs_are_deterministic(runs, workload):
    plain, _ = runs[workload, 0]
    traced, _ = runs[workload, 1]
    assert plain["output_digest"] == traced["output_digest"]
    assert traced["traced_output_digest"] == traced["output_digest"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_times_account_for_traced_wall(runs, workload):
    record, result = runs[workload, 1]
    metrics = result["metrics"]
    wall = metrics["trace.wall_s"]["value"]
    with open(os.path.join(ROOT, record["spans_file"]), encoding="utf-8") as fh:
        doc = json.load(fh)
    top = [(doc["names"][name], end - start)
           for _, name, start, end, parent in doc["spans"] if parent == -1]
    # every job is one cli.main call, and the jobs fill most of the round
    assert {name for name, _ in top} == {"cli.main"}
    jobs_s = sum(d for _, d in top)
    assert 0.8 * wall < jobs_s <= wall
    # the self times split exactly the time inside the jobs
    layers = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    assert layers + metrics["trace.hook_s"]["value"] == pytest.approx(jobs_s, rel=1e-9)
    assert metrics["trace.remainder_s"]["value"] >= 0


def test_stratified_takes_one_item_per_equal_probability_stratum():
    rng = random.Random(0)
    items = workloads.stratified(rng, lambda r: (lambda u: (u, u))(r.random()), 20)
    # the generator is uniform on [0, 1), so item i lies in about the i-th twentieth
    for i, u in enumerate(items):
        assert i / 20 - 0.02 < u < (i + 1) / 20 + 0.02


def test_rounds_keep_the_generator_mix():
    jobs = workloads.generate("knot_invariants", 5)
    braids = Counter(j["strands"] for j in jobs if j["kind"] == "cocycle")
    assert braids == workloads.KNOT_STRANDS
    rng = random.Random("self-test")
    draws = Counter(workloads.natural_knot(rng)[0][:2] for _ in range(2000))
    knots = Counter((len(j["letters"]), j["delta"] != [1])
                    for j in workloads.generate("alexander", 5) if j["kind"] == "alexander")
    for stratum, count in draws.items():
        share = count / 2000
        assert knots[stratum] / workloads.ALEXANDER_KNOTS == pytest.approx(share, abs=0.04)


def test_speeds_scale_to_the_reference():
    refs = [run.REFERENCE_S] * 30 + [2 * run.REFERENCE_S] * 30
    speeds = run.speeds(refs)
    assert speeds[0] == 1.0 and speeds[-1] == 0.5


def test_oracle_on_known_knots():
    assert oracle.alexander(2, [1, 1, 1]) == [1, -1, 1]
    assert oracle.alexander(3, [1, -2, 1, -2]) == [1, -3, 1]
    assert oracle.alexander(2, [1, 1, 1, 1, 1]) == [1, -1, 1, -1, 1]
    assert oracle.coloring_count(2, [1, 1, 1], 3) == 9
    assert oracle.coloring_count(3, [1, -2, 1, -2], 5) == 25
    assert oracle.coloring_count(3, [1, -2, 1, -2], 3) == 3


def test_checks_reject_wrong_outputs():
    job = {"kind": "colorings", "p": 3, "strands": 2, "letters": [1, 1, 1],
           "components": 1, "count": 9}
    good = {"count": 9, "colorings": [[a, b] for a in range(3) for b in range(3)]}
    assert checks.check(job, json.dumps(good)) is None
    short = {"count": 8, "colorings": good["colorings"][:-1]}
    assert checks.check(job, json.dumps(short))
    alex = {"kind": "alexander", "delta": [1, -1, 1], "counts": {3: 9, 5: 5, 7: 7}}
    assert checks.check(alex, json.dumps({"polynomial": {"0": 1, "1": -1, "2": 1}})) is None
    assert checks.check(alex, json.dumps({"polynomial": {"0": 1, "1": -3, "2": 1}}))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("alexander", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
