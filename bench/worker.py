"""Long-lived benchmark worker: one process, jobs run in-process.

Started by run.py as `python3 bench/worker.py <workload>` from the checkout
root with PYTHONPATH=src.  It imports quandlekit, builds the workload's
shared inputs through public calls, prints {"ready": true} and then serves
line-delimited JSON commands on stdin:

  {"cmd": "run", "jobs": [argv, ...], "rounds": r, "timeout": t, "trace": b}
  {"cmd": "quit"}

Each job is one `quandlekit.cli.main(argv)` call with stdout and stderr
captured.  Replies go to the original stdout, one JSON object per line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job.  A BaseException, so that no
    `except Exception` inside the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def setup(workload: str) -> None:
    """Write the shared input files the workload's jobs name."""
    os.makedirs(workloads.INPUTS, exist_ok=True)
    if workload in ("knot_invariants", "cohomology"):
        basis = os.path.join(workloads.INPUTS, "kappa-basis.json")
        rc, _, _ = run_job(["search", "2", "dihedral:3", "conj-rep:perm3", "3",
                            "--out", basis], timeout=60)
        if rc != 0:
            raise RuntimeError(f"search for the cocycle basis exited {rc}")
        with open(basis, encoding="utf-8") as fh:
            doc = json.load(fh)
        # basis[0] gives the trefoil's nine colorings two different values
        with open(workloads.KAPPA, "w", encoding="utf-8") as fh:
            json.dump(doc["basis"][0], fh, sort_keys=True)
    if workload == "cohomology":
        from quandlekit.algebra import make_conj_rep, regular_group_rep
        from quandlekit.groups import small_groups
        from quandlekit.io import rep_to_doc
        from quandlekit.quandles import make_conj
        for g in small_groups(8):
            grep = regular_group_rep(g, make_conj(g), list(range(g.size)), modulus=7)
            with open(workloads.rep_path(g.label), "w", encoding="utf-8") as fh:
                json.dump(rep_to_doc(make_conj_rep(grep)), fh, sort_keys=True)


def run_job(argv, timeout: float):
    """(exit code or 'timeout'/'error', stdout text, seconds)."""
    from quandlekit import cli
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        rc = "timeout"
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    except Exception:  # a traceback is a program defect; record it, go on
        rc = "error"
        print(f"job {argv!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
    return rc, out.getvalue(), time.perf_counter() - t0


def reference() -> float:
    """Seconds one pass of a fixed pure-Python loop takes.  It touches no
    quandlekit code, so it measures how fast the host runs Python at this
    moment, whatever the program under test does."""
    t0 = time.perf_counter()
    table, acc, items = {}, 0, []
    for i in range(8000):
        acc += i * i % 7
        table[i % 500] = acc
        items.append(acc & 255)
    items.sort()
    return time.perf_counter() - t0


def run_rounds(jobs, rounds: int, timeout: float, tracer=None) -> dict:
    """Run the jobs `rounds` times over, each job right after one pass of
    `reference`.  Returns exit codes, latencies and reference times of every
    execution, the first round's outputs, and the executions whose output
    differed from them."""
    codes, latencies, references, mismatched, round_walls = [], [], [], [], []
    outputs, hashes = [], []
    for r in range(rounds):
        round_start = time.perf_counter()
        for i, argv in enumerate(jobs):
            references.append(reference())
            if tracer is not None:
                tracer.current_job = i
            rc, text, dt = run_job(argv, timeout)
            codes.append(rc)
            latencies.append(dt)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if r == 0:
                outputs.append(text)
                hashes.append(digest)
            elif digest != hashes[i]:
                mismatched.append(len(codes) - 1)
        round_walls.append(time.perf_counter() - round_start)
    return {"wall_s": sum(round_walls), "round_walls_s": round_walls,
            "codes": codes, "latencies_s": latencies, "reference_s": references,
            "rounds": rounds, "outputs": outputs, "mismatched": mismatched,
            "output_digest": hashlib.sha256("".join(outputs).encode()).hexdigest()}


def serve(workload: str) -> None:
    chan = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    sys.stdout = sys.stderr  # stray prints must not corrupt the channel

    def send(obj) -> None:
        chan.write(json.dumps(obj) + "\n")
        chan.flush()

    signal.signal(signal.SIGALRM, _on_alarm)
    import quandlekit
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(quandlekit.__file__).startswith(src + os.sep):
        raise RuntimeError(f"quandlekit was imported from {quandlekit.__file__}, "
                           f"not from {src}")
    setup(workload)
    send({"ready": True})
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["cmd"] == "quit":
            break
        jobs, timeout = msg["jobs"], msg["timeout"]
        if not msg["trace"]:
            reply = {"run": run_rounds(jobs, msg["rounds"], timeout)}
        else:
            import tracing
            # the round untraced, traced, and untraced again, in this process;
            # the overhead compares with the faster untraced round
            base = run_rounds(jobs, 1, timeout)
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = run_rounds(jobs, 1, timeout, tracer)
            again = run_rounds(jobs, 1, timeout)
            untraced_wall = min(base["wall_s"], again["wall_s"])
            reply = {"run": base, "traced": traced,
                     "layers": tracer.report(traced["wall_s"], untraced_wall),
                     "spans_file": tracer.dump(msg["spans_file"])}
        reply["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        send(reply)


if __name__ == "__main__":
    serve(sys.argv[1])
