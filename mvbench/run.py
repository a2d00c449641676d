"""mvfed benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 mvbench/run.py --workload wide_views --seed 0 --seconds 22 --trace 0
    python3 mvbench/run.py --workload all --seed 0

``--trace 0`` measures the end-to-end metrics with tracing off: eight
set-up probes, then one worker process that makes the workload's
``passes`` over the fixed job list that ``--seconds`` selects (about
``--seconds`` of work on the reference machine; a faster program runs
the same jobs in less time).  Times are reported at the machine's
reference speed (``at_reference_speed``).
``--trace 1`` runs the workload's fixed traced job list once untraced
and twice traced, checks that all three runs did identical work, and
reports per-layer counts, self times, shares and the tracing overhead.
Each workload runs in its own single worker process.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the environment and
every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 8
# What worker.reference_s() takes on the reference machine (README.md).
REFERENCE_S = 0.030
WORKER_TIMEOUT_S = 170
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Spans whose time the layer table names ``.s`` rather than ``.self_s``:
# they have no child spans, so both are the same number.
TOTAL_TIME_SPANS = ("data.generate", "data.partition")


class WorkerFailed(Exception):
    """A worker process crashed, timed out or printed no result."""


def worker_env() -> dict[str, str]:
    """The caller's environment with BLAS pinned to one thread unless set.

    Multi-threaded OpenBLAS made the d=300 solves several times slower
    and far noisier on a shared 2-core machine; one thread is within the
    "at most nproc" rule and keeps the load to one core.
    """
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    return env


def environment() -> dict:
    """Versions, BLAS and thread settings this result was measured with."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            sha = proc.stdout.strip() or None
        except OSError:  # no git executable
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    env = worker_env()
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env.get(var) for var in BLAS_THREAD_VARS},
    }


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker process to completion; return its result and the
    monotonic time just before it was started.

    The monotonic clock is system-wide on Linux, so the worker's
    ``ready`` reading minus ``started`` is its set-up time, interpreter
    start-up and imports included.
    """
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mvbench.worker", *args],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {args} timed out") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {args} exited with {proc.returncode}")
    return json.loads(lines[-1]), started


def at_reference_speed(seconds: float, ref_s: float) -> float:
    """``seconds`` of wall time, measured while ``reference_s()`` took
    ``ref_s``, scaled to the time it takes when that is ``REFERENCE_S``.

    The speed of the 2-core reference VM (README.md) drifts by up to
    1.9x over seconds to minutes; a time and the reference timed next
    to it slow down together, so their ratio holds still where the raw
    time does not.
    """
    return seconds * REFERENCE_S / ref_s


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 20:
        return ""
    ranked = sorted(values)
    return f", p{100 * (n - 10) // n}={ranked[n - 11]:.6g}"


def end_to_end(name: str, seed: int, seconds: float, tiny: bool, deadline: float):
    """Tracing off: set-up probes plus one timed worker process."""
    from mvbench.workloads import WORKLOADS

    size = WORKLOADS[name].tiny if tiny else WORKLOADS[name].full
    common = ["--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setups, raw_setups = [], []
    for _ in range(SETUP_PROBES):
        out, started = spawn(common + ["--setup-only"], deadline)
        raw_setups.append(out["ready"] - started)
        setups.append(at_reference_speed(raw_setups[-1], out["ref_s"]))
    n_jobs = size.jobs_for(seconds)
    out, started = spawn(
        common + ["--jobs", str(n_jobs), "--repeats", str(size.passes)], deadline
    )
    jobs = out["jobs"]
    ok = [j for j in jobs if "error" not in j]
    lines = [
        f"{'error_rate':<20} {(len(jobs) - len(ok)) / len(jobs):.6g} fraction (n={len(jobs)} jobs)",
        f"{'setup_s':<20} {statistics.median(setups):.6g} s at reference speed "
        f"(median of n={len(setups)} processes; wall time "
        f"{statistics.median(raw_setups):.6g} s)",
        f"{'peak_rss_mb':<20} {out['peak_rss_mb']:.6g} MiB (n=1 process)",
    ]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(out["peak_rss_mb"], "MiB"),
    }
    if ok:
        train = [
            statistics.median(map(at_reference_speed, j["train_s"], j["ref_s"]))
            for j in ok
        ]
        wall = [statistics.median(j["train_s"]) for j in ok]
        refs = [r for j in ok for r in j["ref_s"]]
        metrics["train_s"] = _metric(statistics.median(train), "s")
        metrics["accuracy"] = _metric(statistics.fmean(j["accuracy"] for j in ok), "fraction")
        steps = [j["replies"] / w for j, w in zip(ok, wall) if j["replies"]]
        lines += [
            f"{'train_s':<20} {metrics['train_s']['value']:.6g} s at reference speed "
            f"(median of n={len(ok)} jobs, each the median of {size.passes} passes"
            f"{_tail(train)}; wall time {statistics.median(wall):.6g} s, "
            f"reference_s {statistics.median(refs):.6g} s against {REFERENCE_S} s)",
            f"{'client_steps_per_s':<20} "
            + (f"{statistics.median(steps):.6g} 1/s of wall time (median of n={len(steps)} jobs)"
               if steps else "n/a (no client replies in this workload)"),
            f"{'wire_bytes':<20} {statistics.fmean(j['wire_bytes'] for j in ok):.6g} "
            f"bytes/job (mean of n={len(ok)} jobs)",
            f"{'accuracy':<20} {metrics['accuracy']['value']:.6g} fraction "
            f"(mean of n={len(ok)} jobs)",
        ]
    result = {
        "correct": len(ok) == len(jobs),
        "attempted": len(jobs),
        "failed": len(jobs) - len(ok),
        "metrics": metrics,
    }
    return result, lines


def _job_work(out: dict) -> list[dict]:
    from mvbench.worker import work

    return [work(job) for job in out["jobs"]]


def _calls(out: dict) -> dict[str, int]:
    return {name: row["calls"] for name, row in out["spans"].items()}


def per_layer(name: str, seed: int, tiny: bool, deadline: float):
    """Tracing on: one untraced and two traced runs of the fixed job list."""
    from mvbench.tracer import SPANS
    from mvbench.workloads import WORKLOADS

    size = WORKLOADS[name].tiny if tiny else WORKLOADS[name].full
    common = ["--workload", name, "--seed", str(seed), "--jobs", str(size.trace_jobs)]
    common += ["--tiny"] if tiny else []
    plain, _ = spawn(common, deadline)
    traced = [spawn(common + ["--trace"], deadline)[0] for _ in range(2)]
    jobs = [j for run in [plain, *traced] for j in run["jobs"]]
    failed = sum("error" in j for j in jobs)
    same = (
        _job_work(plain) == _job_work(traced[0]) == _job_work(traced[1])
        and _calls(traced[0]) == _calls(traced[1])
    )
    ok_plain = [j for j in plain["jobs"] if "error" not in j]
    result = {
        "correct": failed == 0 and same,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {},
    }
    lines = [
        "determinism: the untraced and both traced runs did "
        + ("identical work" if same else "DIFFERENT work")
    ]
    if failed or not ok_plain:
        return result, lines

    metrics = result["metrics"]
    job_s = statistics.fmean(t["spans"]["job"]["total_s"] for t in traced)
    for span in list(SPANS) + ["job"]:
        rows = [t["spans"].get(span, {"calls": 0, "self_s": 0.0}) for t in traced]
        self_s = statistics.fmean(r["self_s"] for r in rows)
        suffix = ".s" if span in TOTAL_TIME_SPANS else ".self_s"
        metrics[f"{span}.calls"] = _metric(rows[0]["calls"], "count")
        metrics[span + suffix] = _metric(self_s, "s")
        metrics[f"{span}.share"] = _metric(self_s / job_s, "fraction")
    metrics["fedcore.rounds"] = _metric(sum(j["rounds"] for j in ok_plain), "count")
    metrics["fedcore.messages"] = _metric(sum(j["messages"] for j in ok_plain), "count")
    metrics["wire_bytes"] = _metric(
        statistics.fmean(j["wire_bytes"] for j in ok_plain), "bytes/job"
    )
    train_s = sum(j["train_s"][0] for j in ok_plain)
    metrics["client_steps_per_s"] = _metric(
        sum(j["replies"] for j in ok_plain) / train_s, "1/s"
    )
    traced_train = statistics.median(j["train_s"][0] for t in traced for j in t["jobs"])
    plain_train = statistics.median(j["train_s"][0] for j in ok_plain)
    metrics["trace.overhead"] = _metric(traced_train / plain_train, "ratio")
    lines.append(
        f"traced job list: n={len(ok_plain)} jobs, traced job wall time "
        f"{job_s:.6g} s (mean of n=2 traced runs)"
    )
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 mvbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for a smoke run in seconds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mvfed" / "__init__.py").is_file():
        print(f"mvbench: no mvfed source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from mvbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    all_correct = True
    for name in names:
        deadline = time.monotonic() + WORKER_TIMEOUT_S
        try:
            if args.trace:
                result, lines = per_layer(name, args.seed, args.tiny, deadline)
            else:
                result, lines = end_to_end(
                    name, args.seed, args.seconds, args.tiny, deadline
                )
        except WorkerFailed as exc:
            print(f"mvbench: {name}: {exc}", file=sys.stderr)
            return 1
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for line in lines:
            print("  " + line)
        if args.trace:
            for metric, entry in result["metrics"].items():
                print(f"  {metric:<34} {entry['value']:.6g} {entry['unit']}")
        all_correct = all_correct and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
