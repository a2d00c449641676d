"""Smoke runs of every workload, determinism, and the CLI contract."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvbench import run
from mvbench.tracer import Tracer
from mvbench.worker import _merge_repeat, run_jobs
from mvbench.workloads import WORKLOADS
from mvfed import GeneratorSpec, HyperParams, gen_multiview, train_mvl, vfed_train

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_every_check(name):
    workload = WORKLOADS[name]
    ready, records = run_jobs(workload, workload.tiny, seed=3, jobs=2, repeats=2)
    assert ready is not None
    assert [r.get("error") for r in records] == [None, None]
    for r in records:
        assert len(r["train_s"]) == 2 and min(r["train_s"]) > 0
        assert len(r["ref_s"]) == 2 and min(r["ref_s"]) > 0
        assert 0.0 <= r["accuracy"] <= 1.0
        assert (r["wire_bytes"] > 0) == (name != "grid_search")


def test_a_repeat_with_different_output_fails_the_job():
    first = {"train_s": [1.0], "ref_s": [0.03], "accuracy": 0.9}
    merged = _merge_repeat(first, {"train_s": [0.8], "ref_s": [0.02], "accuracy": 0.9})
    assert merged == {"train_s": [1.0, 0.8], "ref_s": [0.03, 0.02], "accuracy": 0.9}
    assert "error" in _merge_repeat(
        first, {"train_s": [0.8], "ref_s": [0.03], "accuracy": 0.8}
    )


def test_times_scale_to_the_reference_speed():
    assert run.at_reference_speed(1.5, run.REFERENCE_S) == 1.5
    # The reference took twice as long, so the machine ran at half speed.
    assert run.at_reference_speed(1.5, 2 * run.REFERENCE_S) == 0.75


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_traced_runs_do_identical_work(name):
    workload = WORKLOADS[name]
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            _, records = run_jobs(workload, workload.tiny, seed=1, jobs=2, tracer=tracer)
        calls = {span: row["calls"] for span, row in tracer.summary().items()}
        work = [{k: v for k, v in r.items() if k != "train_s"} for r in records]
        runs.append((calls, work))
    assert runs[0] == runs[1]
    assert runs[0][0]["job"] == 2 and runs[0][0]["numerics.solve_spd"] > 0


def test_vertical_matches_centralized_bit_for_bit_when_d_exceeds_n():
    # The wide_views workload times vfed_train; this pins it to the same
    # arithmetic as train_mvl at a d > n shape.
    hp = HyperParams.uniform(3, beta=4.0, zeta=8.0, eta=8.0,
                             tol=1e-300, max_outer=4, max_inner=3)
    for seed in range(2):
        data = gen_multiview(GeneratorSpec(
            n_samples=30, dims=(90, 45, 10), n_classes=3,
            noise=3.0, margin=1.0, seed=seed,
        ))
        state, _ = train_mvl(data, hp, seed)
        fed = vfed_train(data, hp, seed)
        assert fed.log.n_rounds == hp.max_outer
        for w_c, w_f in zip(state.W, fed.transforms):
            assert np.array_equal(w_c, w_f)
        assert np.array_equal(state.Z, fed.consensus)


@pytest.mark.parametrize("trace, listed", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_listed_metric_last(trace, listed):
    proc = subprocess.run(
        [sys.executable, "mvbench/run.py", "--workload", "sequential", "--seed", "2",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    size = WORKLOADS["sequential"].tiny
    # The job list is fixed by --seconds (and, traced, by trace_jobs),
    # not by how fast the jobs ran: one untraced plus two traced runs.
    expected = 3 * size.trace_jobs if trace else size.jobs_for(0.2)
    assert result["attempted"] == expected
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in bench[listed])
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)


def test_cli_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "mvbench", tmp_path / "mvbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "mvbench/run.py", "--workload", "wide_views", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
