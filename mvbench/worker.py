"""One workload in one process: ``python3 -m mvbench.worker``.

``run.py`` starts this module from the repository root and reads the
JSON line it prints last: the monotonic clock just before the first
training call (``ready``), one record per job, the peak resident set
and, for a traced run, the span summary.  ``--setup-only`` stops at the
first training call, which is how ``run.py`` samples set-up time.

Untraced runs also time ``reference_s`` around every job, and a
set-up-only run right after set-up, so that ``run.py`` can put each
time at the machine's reference speed.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((6, 6))
    mid = rng.standard_normal((200, 200))
    return (small @ small.T + 6 * np.eye(6), np.ones((6, 2)),
            mid @ mid.T + 200 * np.eye(200), np.ones(200))


def reference_s() -> float:
    """Wall time of a fixed computation that never touches mvfed.

    It mixes what the workloads spend their time on: interpreter
    bytecode, many tiny scipy Cholesky solves (per-call overhead) and a
    few 200 x 200 ones (flops).  Its inputs and work never change, so
    its time follows only how fast the machine runs at that moment.
    """
    from scipy.linalg import cho_factor, cho_solve

    small, small_rhs, mid, mid_rhs = _reference_inputs()
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    for _ in range(300):
        cho_solve(cho_factor(small), small_rhs)
    for _ in range(16):
        cho_solve(cho_factor(mid), mid_rhs)
    return time.perf_counter() - start


def run_jobs(workload, size, seed: int, jobs: int, repeats: int = 1, tracer=None):
    """Run jobs 0 .. ``jobs - 1`` of ``workload``, ``repeats`` passes over
    the list; return ``(ready, records)``.

    Each pass prepares a job's inputs afresh from its seed and trains on
    them again, so a job's repeats lie a whole pass apart: a slow spell of
    the machine rarely covers all of them.  A record's ``train_s`` lists
    the training time of every pass.  A repeat whose record differs from
    the first pass in anything but its timings fails the job.  A job that
    raises or fails a check is recorded as ``{"error": ...}`` and the run
    goes on.  With a tracer, every pass of a job is one ``job`` span
    around its set-up, training, evaluation and checks.  Without one, a
    record's ``ref_s`` lists, per pass, the mean of ``reference_s`` timed
    just before and just after the job's training and evaluation.
    """
    from mvbench.workloads import check_job, job_seed

    ready = None

    def job(j: int) -> dict:
        nonlocal ready
        inputs = workload.prepare(job_seed(seed, j), size)
        if ready is None:
            ready = time.monotonic()
        if tracer is not None:
            return check_job(workload.run(inputs), size.accuracy_floor)
        before = reference_s()
        result = workload.run(inputs)
        ref_s = (before + reference_s()) / 2
        return {**check_job(result, size.accuracy_floor), "ref_s": [ref_s]}

    if tracer is not None:
        job = tracer.wrap("job", job)
    records = []
    for rep in range(repeats):
        for j in range(jobs):
            try:
                record = job(j)
            except Exception as exc:  # a failed job is counted; the run goes on
                traceback.print_exc(file=sys.stderr)
                record = {"error": f"{type(exc).__name__}: {exc}"}
            if rep == 0:
                records.append(record)
            elif "error" not in records[j]:
                records[j] = _merge_repeat(records[j], record)
    return ready, records


TIMINGS = ("train_s", "ref_s")


def _merge_repeat(first: dict, again: dict) -> dict:
    if "error" in again:
        return again
    if work(again) != work(first):
        return {"error": "a repeat of the job returned different output"}
    return {**first, **{k: first[k] + again[k] for k in TIMINGS if k in first}}


def work(record: dict) -> dict:
    """Everything in a job record but its timings: repeats at one seed
    must agree on it exactly."""
    return {k: v for k, v in record.items() if k not in TIMINGS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m mvbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if not args.setup_only and args.jobs is None:
        parser.error("give --jobs or --setup-only")

    sys.path.insert(0, str(ROOT / "src"))
    import mvfed

    where = Path(mvfed.__file__).resolve().parent
    if where != ROOT / "src" / "mvfed":
        print(f"mvfed imported from {where}, not from this checkout", file=sys.stderr)
        return 2
    from mvbench.tracer import Tracer
    from mvbench.workloads import WORKLOADS, job_seed

    workload = WORKLOADS[args.workload]
    size = workload.tiny if args.tiny else workload.full
    out: dict = {"ready": None, "jobs": [], "spans": None}
    if args.setup_only:
        workload.prepare(job_seed(args.seed, 0), size)
        out["ready"] = time.monotonic()
        out["ref_s"] = reference_s()
    elif args.trace:
        tracer = Tracer()
        with tracer.installed():
            out["ready"], out["jobs"] = run_jobs(
                workload, size, args.seed, args.jobs, args.repeats, tracer
            )
        out["spans"] = tracer.summary()
    else:
        out["ready"], out["jobs"] = run_jobs(
            workload, size, args.seed, args.jobs, args.repeats
        )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
