"""The four benchmark workloads: seeded inputs, one job, output checks.

A job is one seeded train-and-evaluate unit.  ``prepare`` builds its
inputs (generate, split, partition); ``run`` makes the training calls,
scores rows that no trainer saw and checks what only that workload
returns; ``check_job`` applies the checks all workloads share.  Both call only
the public trainers and predictors, and look them up on the ``mvfed``
modules at call time so that a traced run sees its wrappers.

Why each workload exists, and which layer it isolates, is written next
to the ``WORKLOADS`` entries, in BENCHMARK.json and in README.md.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import mvfed
from mvfed import fedcore


class CheckFailed(Exception):
    """A job returned output that fails one of the benchmark's checks."""


@dataclass(frozen=True)
class Size:
    """Problem size of one workload.

    ``job_s`` is the nominal wall time of one pass of one job on the
    reference machine (README.md); a ``--trace 0`` run of ``seconds``
    makes ``passes`` passes over ``jobs_for(seconds)`` jobs, so the job
    list depends on the seed and ``--seconds`` only, never on how fast
    the program runs.
    ``trace_jobs`` fixes the job list of a traced run, so that two traced
    runs can be compared count for count."""

    n_train: int
    n_test: int
    dims: tuple[int, ...]
    n_clients: int = 1
    rounds: int = 1
    encoder_rounds: int = 0
    max_outer: int = 50
    accuracy_floor: float = 0.0
    job_s: float = 1.0
    passes: int = 3
    trace_jobs: int = 1

    def jobs_for(self, seconds: float) -> int:
        return max(1, round(seconds / (self.passes * self.job_s)))


@dataclass
class JobResult:
    train_s: float
    accuracy: float
    outputs: np.ndarray  # test scores; the metrics row for grid_search
    # (log, allowed message kinds, part of training?) per protocol run
    logs: list[tuple[fedcore.RoundLog, frozenset, bool]]


@dataclass(frozen=True)
class Workload:
    name: str
    full: Size
    tiny: Size
    prepare: Callable[[int, Size], Any]
    run: Callable[[Any], JobResult]


def job_seed(seed: int, job: int) -> int:
    """Seed of job ``job`` in a run started with ``--seed seed``."""
    return seed * 100_000 + job


def _check_finite(what: str, *arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise CheckFailed(f"{what} has non-finite entries")


def _accuracy(scores: np.ndarray, truth: np.ndarray) -> float:
    _check_finite("scores", scores)
    return mvfed.compute_metrics(mvfed.argmax_decode(scores), truth).accuracy


def _rows(data, start: int, stop: int):
    return data.subset(np.arange(start, stop))


def _fingerprint(outputs: np.ndarray) -> str:
    """Hash of the outputs rounded to 1e-10, so that a rerun at the same
    seed must reproduce them while a last-bit difference almost never
    shows; adding 0.0 turns -0.0 into 0.0."""
    rounded = np.round(np.asarray(outputs, dtype=np.float64), 10) + 0.0
    return hashlib.sha256(rounded.tobytes()).hexdigest()[:16]


def check_job(result: JobResult, floor: float) -> dict:
    """Apply the checks every workload shares and return the job record."""
    if not np.isfinite(result.accuracy) or result.accuracy < floor:
        raise CheckFailed(f"accuracy {result.accuracy} below the floor {floor}")
    for log, allowed, _ in result.logs:
        extra = fedcore.disallowed_kinds(log, allowed)
        if extra:
            raise CheckFailed(f"message kinds {sorted(extra)} outside the allowlist")
    server = fedcore.SERVER_WIRE_ID
    replies = sum(
        1
        for log, _, training in result.logs
        if training
        for r in log.records
        for m in r.messages
        if m.sender != server
    )
    return {
        "train_s": [result.train_s],
        "accuracy": result.accuracy,
        "outputs": _fingerprint(result.outputs),
        "replies": replies,
        "wire_bytes": sum(log.total_bytes() for log, _, _ in result.logs),
        "rounds": sum(log.n_rounds for log, _, _ in result.logs),
        "messages": sum(log.message_count() for log, _, _ in result.logs),
    }


# --- wide_views: vertical federation with d >> n -----------------------

def _wide_prepare(seed: int, size: Size):
    data = mvfed.gen_multiview(
        mvfed.GeneratorSpec(
            n_samples=size.n_train + size.n_test, dims=size.dims, n_classes=3,
            noise=3.0, margin=1.0, seed=seed,
        )
    )
    hp = mvfed.HyperParams.uniform(
        len(size.dims), beta=4.0, zeta=8.0, eta=8.0, max_outer=size.max_outer
    )
    train = _rows(data, 0, size.n_train)
    test = _rows(data, size.n_train, size.n_train + size.n_test)
    return seed, hp, train, test


def _wide_run(inputs) -> JobResult:
    seed, hp, train, test = inputs
    start = time.perf_counter()
    fit = mvfed.vfed_train(train, hp, seed, transport=fedcore.FramedByteTransport())
    train_s = time.perf_counter() - start
    _check_finite("transforms", *fit.transforms, fit.consensus)
    log = fedcore.RoundLog()
    scores = mvfed.vfed_predict(
        test.views, fit.transforms, hp.zeta, tol=hp.tol, max_rounds=hp.max_outer,
        transport=fedcore.FramedByteTransport(), log=log,
    )
    central = mvfed.predict_mvl(
        test.views, fit.transforms, hp.zeta, tol=hp.tol, max_outer=hp.max_outer
    )
    if not np.array_equal(scores, central):
        raise CheckFailed("vfed_predict scores differ from predict_mvl scores")
    kinds = fedcore.VERTICAL_KINDS
    return JobResult(
        train_s, _accuracy(scores, test.class_indices()), scores,
        [(fit.log, kinds, True), (log, kinds, False)],
    )


# --- many_clients: horizontal FedAvg over many tiny clients ------------

def _clients_prepare(seed: int, size: Size):
    data = mvfed.gen_complementary(
        mvfed.GeneratorSpec(
            n_samples=size.n_train + size.n_test, dims=size.dims, n_classes=2,
            noise=0.5, margin=3.0, seed=seed,
        )
    )
    hp = mvfed.HyperParams.uniform(
        len(size.dims), beta=4.0, zeta=8.0, eta=8.0,
        max_outer=size.max_outer, max_inner=5,
    )
    shards = mvfed.partition_horizontal(
        _rows(data, 0, size.n_train), size.n_clients, stratified=True, seed=seed
    )
    test = _rows(data, size.n_train, size.n_train + size.n_test)
    return seed, hp, shards, test, size.rounds


def _clients_run(inputs) -> JobResult:
    seed, hp, shards, test, rounds = inputs
    start = time.perf_counter()
    fit = mvfed.hfed_train(shards, hp, seed, rounds=rounds, max_local=2)
    train_s = time.perf_counter() - start
    _check_finite("transforms", *fit.transforms)
    scores = mvfed.predict_mvl(
        test.views, fit.transforms, hp.zeta, tol=hp.tol, max_outer=hp.max_outer
    )
    return JobResult(
        train_s, _accuracy(scores, test.class_indices()), scores,
        [(fit.log, fedcore.HORIZONTAL_KINDS, True)],
    )


# --- sequential: federated encoders, then horizontal federation --------

def _seq_prepare(seed: int, size: Size):
    bundle = mvfed.gen_sequences(
        mvfed.SeqGeneratorSpec(
            n_samples=size.n_train + size.n_test, step_dims=size.dims,
            t_range=(10, 30), n_classes=2, drift=0.8, noise=2.5, seed=seed,
        )
    )
    hp = mvfed.HyperParams.uniform(
        len(size.dims), beta=4.0, zeta=8.0, eta=8.0, max_outer=size.max_outer
    )
    trainer = mvfed.TrainerConfig(
        batch_size=8, local_epochs=1, learning_rate=0.05,
        max_rounds=size.encoder_rounds, seed=seed,
    )
    clients = mvfed.partition_sequences(
        _rows(bundle, 0, size.n_train), size.n_clients, stratified=True, seed=seed
    )
    test = _rows(bundle, size.n_train, size.n_train + size.n_test)
    return seed, hp, trainer, clients, test, size.rounds


def _embed(res, bundle) -> list[np.ndarray]:
    return [
        mvfed.extract_features(arch, w, view)
        for arch, w, view in zip(res.archs, res.params, bundle.views)
    ]


def _seq_run(inputs) -> JobResult:
    seed, hp, trainer, clients, test, rounds = inputs
    start = time.perf_counter()
    enc = mvfed.sfed_train(clients, trainer, embed_dim=8)
    feature_sets = [
        mvfed.MultiViewDataset.from_class_indices(_embed(enc, c), c.y, n_classes=2)
        for c in clients
    ]
    fit = mvfed.hfed_train(feature_sets, hp, seed, rounds=rounds, max_local=10)
    train_s = time.perf_counter() - start
    _check_finite("encoder parameters", *enc.params)
    _check_finite("transforms", *fit.transforms)
    scores = mvfed.predict_mvl(
        _embed(enc, test), fit.transforms, hp.zeta, tol=hp.tol, max_outer=hp.max_outer
    )
    return JobResult(
        train_s, _accuracy(scores, test.y), scores,
        [(enc.log, fedcore.SEQUENTIAL_KINDS, True),
         (fit.log, fedcore.HORIZONTAL_KINDS, True)],
    )


# --- grid_search: centralized fits over the validation grid ------------

def _grid_prepare(seed: int, size: Size):
    spec = mvfed.GeneratorSpec(
        n_samples=size.n_train, dims=size.dims, n_classes=2,
        noise=0.5, margin=3.0, seed=seed,
    )
    cfg = mvfed.RunConfig(
        mode="mvl", spec=spec, generator="complementary",
        hp=mvfed.HyperParams.uniform(
            len(size.dims), beta=4.0, zeta=8.0, eta=8.0, max_outer=size.max_outer
        ),
        repeats=1, seed=seed, grid=True,
    )
    return cfg, mvfed.gen_complementary(spec)


def _grid_run(inputs) -> JobResult:
    cfg, data = inputs
    start = time.perf_counter()
    result = mvfed.run_experiment(cfg, dataset=data)
    train_s = time.perf_counter() - start
    row = result.report.rows[0]
    outputs = np.array([row.accuracy, row.precision, row.recall, row.f1,
                        *result.grid_choices[0]])
    return JobResult(train_s, row.accuracy, outputs, [])


WORKLOADS = {
    w.name: w
    for w in (
        # The widest view is 3x the train rows, so the O(d^3) primal solve and
        # its d x d Gram dominate; fedcore carries a few small messages.
        Workload(
            name="wide_views",
            full=Size(n_train=100, n_test=300, dims=(300, 150, 20), max_outer=5,
                      accuracy_floor=0.6, job_s=0.38, trace_jobs=4),
            tiny=Size(n_train=20, n_test=30, dims=(60, 30, 5), max_outer=2,
                      job_s=0.1, trace_jobs=2),
            prepare=_wide_prepare,
            run=_wide_run,
        ),
        # 128 clients of 10 rows: many tiny IRLS solves and the largest fedcore
        # per-message share.  Rows exceed view widths, so a d > n path stays off.
        Workload(
            name="many_clients",
            full=Size(n_train=1280, n_test=400, dims=(6, 6, 6), n_clients=128,
                      rounds=3, accuracy_floor=0.85, job_s=2.3, trace_jobs=2),
            tiny=Size(n_train=80, n_test=40, dims=(6, 6, 6), n_clients=8,
                      rounds=2, job_s=0.1, trace_jobs=2),
            prepare=_clients_prepare,
            run=_clients_run,
        ),
        # The only sfed workload: encoder FedAvg, feature extraction, then hfed.
        Workload(
            name="sequential",
            full=Size(n_train=320, n_test=400, dims=(6, 6, 6), n_clients=24,
                      rounds=5, encoder_rounds=10, accuracy_floor=0.6,
                      job_s=1.0, passes=1, trace_jobs=4),
            tiny=Size(n_train=48, n_test=24, dims=(4, 4), n_clients=4,
                      rounds=2, encoder_rounds=3, job_s=0.1, trace_jobs=2),
            prepare=_seq_prepare,
            run=_seq_run,
        ),
        # Refits the same X for every grid candidate; the only centralized and
        # experiments path, and nothing crosses fedcore.
        Workload(
            name="grid_search",
            full=Size(n_train=600, n_test=0, dims=(6, 6, 6), max_outer=50,
                      accuracy_floor=0.8, job_s=2.8, passes=1, trace_jobs=3),
            tiny=Size(n_train=60, n_test=0, dims=(4, 4), max_outer=3,
                      job_s=0.1, trace_jobs=2),
            prepare=_grid_prepare,
            run=_grid_run,
        ),
    )
}
