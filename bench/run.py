"""quandlekit benchmark: closed-loop CLI workloads with a traced variant.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; it works in the checkout that holds this file and uses
the package from its `src/`.  One worker process (bench/worker.py) serves
one client: each job is a `quandlekit.cli.main(argv)` call with `--jobs 1`,
sent only after the previous one finished.  The worker runs the seeded
round of jobs a fixed number of times, set by --seconds and the workload's
calibrated round time (workloads.rounds), so every run measures the same mix
of work with the same number of samples.

--trace 0 prints the end-to-end metrics; --trace 1 runs one round untraced,
the same round with per-layer spans (bench/tracing.py) and the round
untraced again, all in the same worker, and prints the per-layer metrics.
Output checks (bench/checks.py) run after the timed loop.  A record with the
output digest, the job count and the platform precedes the result, which is
the last line of stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import reference  # noqa: E402

SETUPS = 7            # fresh workers spawned per run; setup_s is their median
SETUP_REFERENCES = 11 # reference passes timed before and after each spawn
SPEED_WINDOW = 10     # executions on either side whose references set a speed
# Median time of one worker.reference() pass on the calibration host (2-core
# Xeon, Python 3.11.7) in a steady phase; timings are scaled to that speed.
REFERENCE_S = 0.0013
JOB_TIMEOUT = 30.0    # seconds per job inside the worker
RUN_LIMIT = 165.0     # seconds for the whole invocation, below the 180 s cap
READY_TIMEOUT = 60.0  # seconds for one worker to finish set-up


class WorkerError(RuntimeError):
    pass


class Worker:
    """A bench/worker.py subprocess speaking line-delimited JSON."""

    def __init__(self, workload: str):
        # a fixed string-hash seed, so that dict layouts, and with them
        # timings, do not vary from one worker process to the next
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join("bench", "worker.py"), workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def send(self, obj) -> None:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def read(self, timeout: float):
        timeout = max(timeout, 0)
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise WorkerError(f"worker gave no reply within {timeout:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self, kill: bool = False) -> None:
        try:
            if self.proc.poll() is None and not kill:
                self.send({"cmd": "quit"})
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


def start_worker(workload: str):
    """A ready worker and its set-up time in seconds."""
    t0 = time.perf_counter()
    worker = Worker(workload)
    try:
        if not worker.read(READY_TIMEOUT).get("ready"):
            raise WorkerError("worker did not report ready")
    except BaseException:
        worker.close(kill=True)
        raise
    return worker, time.perf_counter() - t0


def commit_id() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def source_digest() -> str:
    """sha256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    pkg = os.path.join("src", "quandlekit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def failed_executions(jobs, run: dict) -> tuple[set, list[str]]:
    """Indices of failed executions in `run`, and the first messages.

    An execution fails when it exits nonzero or times out, when the first
    round's output for its job fails a check, or when its output differs
    from the first round's."""
    n = len(jobs)
    bad_jobs, messages = {}, []
    seen: dict = {}
    for i, (job, text) in enumerate(zip(jobs, run["outputs"])):
        rc = run["codes"][i]
        if rc != 0:
            bad_jobs[i] = f"exit {rc}"
            continue
        key = (tuple(job["argv"]), text)
        if key not in seen:
            seen[key] = checks.check(job, text)
        if seen[key]:
            bad_jobs[i] = seen[key]
    failed = {e for e, rc in enumerate(run["codes"]) if rc != 0}
    failed |= {e for e in range(len(run["codes"])) if e % n in bad_jobs}
    failed |= set(run["mismatched"])
    for i, msg in list(bad_jobs.items())[:5]:
        messages.append(f"{' '.join(jobs[i]['argv'])}: {msg}")
    if run["mismatched"]:
        messages.append(f"{len(run['mismatched'])} executions differ from round 1")
    return failed, messages


def speeds(references) -> list[float]:
    """The host's speed at each execution: REFERENCE_S over the median of
    the reference passes timed just before the SPEED_WINDOW executions on
    either side of it."""
    n = len(references)
    return [REFERENCE_S / statistics.median(
                references[max(0, e - SPEED_WINDOW):e + SPEED_WINDOW + 1])
            for e in range(n)]


def end_to_end(run: dict, jobs, setups, rss: float) -> tuple[dict, dict]:
    """Timings scaled to the calibration host's speed, and the same timings
    unscaled.

    A shared host runs Python up to 1.9 times slower in phases of seconds,
    and slows every job of a phase nearly alike: over 150 s of 5 s windows
    the time of a fixed job varied by up to 1.9x, its ratio to the
    reference pass by 10% or less in most windows (see bench/README.md).  Each execution's time is therefore
    multiplied by the host's speed around it (`speeds`), which gives the
    milliseconds it would take on the calibration host.  A job's time is
    the median of its scaled executions over all rounds and its copies in a
    round; both counts are fixed per workload.  jobs_per_s is the round's
    job count over the sum of those times."""
    n = len(jobs)

    def timings(scale) -> dict:
        samples: dict = {}
        for e, dt in enumerate(run["latencies_s"]):
            samples.setdefault(tuple(jobs[e % n]["argv"]), []).append(dt * scale[e])
        job_s = [statistics.median(samples[tuple(job["argv"])]) for job in jobs]
        job_ms = [x * 1000 for x in job_s]
        return {
            "jobs_per_s": (n / sum(job_s), "jobs/s"),
            "job_p50_ms": (percentile(job_ms, 0.5), "ms"),
            "job_p90_ms": (percentile(job_ms, 0.9), "ms"),
            "setup_s": (statistics.median(s * speed for s, speed in setups), "s"),
            "peak_rss_mb": (rss, "MiB"),
        }

    raw = timings([1.0] * len(run["latencies_s"]))
    raw["setup_s"] = (statistics.median(s for s, _ in setups), "s")
    return timings(speeds(run["reference_s"])), raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny rounds, for the self-test")
    args = parser.parse_args(argv)
    began = time.perf_counter()
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "quandlekit", "cli.py")):
        print(f"no quandlekit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    jobs = workloads.generate(args.workload, args.seed, args.quick)
    setups = []
    worker = reply = None
    try:
        for _ in range(SETUPS):
            if worker is not None:
                worker.close()
            before = [reference() for _ in range(SETUP_REFERENCES)]
            worker, elapsed = start_worker(args.workload)
            after = [reference() for _ in range(SETUP_REFERENCES)]
            setups.append((elapsed, REFERENCE_S / statistics.median(before + after)))
        spans_file = os.path.join(".bench_out", "trace",
                                  f"{args.workload}-seed{args.seed}.json")
        worker.send({"cmd": "run", "jobs": [j["argv"] for j in jobs],
                     "rounds": workloads.rounds(args.workload, args.seconds),
                     "timeout": JOB_TIMEOUT,
                     "trace": bool(args.trace), "spans_file": spans_file})
        reply = worker.read(RUN_LIMIT - (time.perf_counter() - began))
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        if worker is not None:
            worker.close(kill=reply is None)

    run = reply["run"]
    failed, messages = failed_executions(jobs, run)
    attempted = len(run["codes"])
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "jobs_per_round": len(jobs), "rounds": run["rounds"],
              "executions": attempted, "output_digest": run["output_digest"],
              "commit": commit_id(), "source_sha256": source_digest(),
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "setup_samples_s": [s for s, _ in setups],
              "setup_speeds": [speed for _, speed in setups],
              "round_walls_s": run["round_walls_s"]}
    correct = True
    if args.trace:
        traced = reply["traced"]
        traced_failed, traced_messages = failed_executions(jobs, traced)
        failed |= {len(run["codes"]) + e for e in traced_failed}
        messages += traced_messages
        attempted += len(traced["codes"])
        record["traced_output_digest"] = traced["output_digest"]
        record["spans_file"] = reply["spans_file"]
        if traced["output_digest"] != run["output_digest"]:
            correct = False
            messages.append("traced and untraced outputs differ")
        metrics = reply["layers"]
    else:
        metrics, unscaled = end_to_end(run, jobs, setups, reply["peak_rss_mb"])
        record["unscaled"] = {k: v for k, (v, _) in unscaled.items()}
    record["failed_frac"] = len(failed) / attempted
    record["failures"] = messages
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct and not failed, "attempted": attempted,
                      "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
