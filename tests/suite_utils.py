"""Shared builders for randomized training instances used across tests."""

from __future__ import annotations

import numpy as np

import dataclasses
from itertools import product

from mvfed.experiments import GRID_EXPONENTS, split_indices
from mvfed.metrics import METRIC_NAMES, compute_metrics
from mvfed.mvl import HyperParams, MultiViewDataset, argmax_decode, predict_mvl, train_mvl


def random_instance(seed: int, max_samples: int = 100) -> tuple[MultiViewDataset, HyperParams]:
    """Small random multi-view instance with mixed hyperparameters.

    Data is kept O(1) per entry so objective values stay O(100) and
    absolute monotonicity slack of 1e-10 is meaningful.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, max_samples + 1))
    k = int(rng.integers(1, 4))
    c = int(rng.integers(2, 4))
    dims = [int(rng.integers(3, 11)) for _ in range(k)]
    y = rng.integers(0, c, size=n)
    y[:c] = np.arange(c)  # every class present
    views = [rng.standard_normal((n, d)) for d in dims]
    labels = np.zeros((n, c))
    labels[np.arange(n), y] = 1.0
    hp = HyperParams(
        beta=tuple(float(rng.uniform(0.5, 8.0)) for _ in range(k)),
        zeta=tuple(float(rng.uniform(0.5, 16.0)) for _ in range(k)),
        eta=float(rng.uniform(0.5, 16.0)),
        epsilon=1e-8,
        tol=1e-9,
        max_outer=12,
        max_inner=8,
    )
    return MultiViewDataset(views=views, labels=labels), hp


def blob_dataset(
    seed: int,
    n: int = 60,
    dims: tuple[int, ...] = (5, 4),
    n_classes: int = 2,
    separation: float = 3.0,
    noise: float = 0.5,
) -> MultiViewDataset:
    """Linearly separable class blobs replicated across views."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % n_classes
    rng.shuffle(y)
    views = []
    for d in dims:
        centers = rng.standard_normal((n_classes, d))
        centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
        views.append(centers[y] + noise * rng.standard_normal((n, d)))
    labels = np.zeros((n, n_classes))
    labels[np.arange(n), y] = 1.0
    return MultiViewDataset(views=views, labels=labels)


def reference_grid(cfg, data: MultiViewDataset, seed: int):
    """The validation grid of an mvl-trainer mode as the loop it was
    before the candidate stack: one `train_mvl` + `predict_mvl` fit per
    candidate, in (zeta, eta) exponent order, the first strictly best
    validation accuracy winning; the winner is trained again for the
    test part.  Returns the test metrics row and the chosen (zeta, eta).
    """
    mask = cfg.view_mask if cfg.view_mask is not None else tuple(range(data.n_views))
    masked = data.select_views(mask)
    hp = cfg.hp
    if hp.n_views != len(mask):
        hp = dataclasses.replace(
            hp, beta=tuple(hp.beta[k] for k in mask), zeta=tuple(hp.zeta[k] for k in mask)
        )
    train, val, test = (
        masked.subset(p)
        for p in split_indices(masked.class_indices(), masked.n_classes, cfg.split, seed)
    )

    def score(candidate, part):
        state, _ = train_mvl(train, candidate, seed)
        scores = predict_mvl(
            part.views, state.W, candidate.zeta, tol=candidate.tol, max_outer=candidate.max_outer
        )
        return compute_metrics(argmax_decode(scores), part.class_indices(), cfg.positive_class)

    best, best_acc = None, -1.0
    for ze, ee in product(GRID_EXPONENTS, GRID_EXPONENTS):
        candidate = dataclasses.replace(hp, zeta=(2.0 ** ze,) * hp.n_views, eta=2.0 ** ee)
        accuracy = score(candidate, val).accuracy
        if accuracy > best_acc:
            best, best_acc = candidate, accuracy
    return score(best, test), (best.zeta[0], best.eta)


def record_calls(monkeypatch, module, name, stacked_arg, group=False):
    """Stack sizes of every call to module.<name>, read from its
    positional argument number stacked_arg.  With group=True a call
    that passes a group there (a list of stacks, as `_fit_stats` takes
    a width group) counts the group's total slices."""
    sizes = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        arg = args[stacked_arg]
        sizes.append(sum(map(len, arg)) if group and isinstance(arg, list) else len(arg))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return sizes


def stage(clients, rnd, msgs):
    """What the round driver does with a client class: its `steps`
    answers all the clients as one stack.  Returns the replies."""
    return type(clients[0]).steps(clients, rnd, msgs)


def client_state(client):
    """A horizontal client's pseudo-label and consensus blocks: its
    slot's rows of the stacks its block holds."""
    block = client.rows
    start = sum(block.rows[: client.slot])
    rows = slice(start, start + block.rows[client.slot])
    return [m[rows] for m in block.pseudo], block.consensus[rows]


def read_report(path: str):
    """Parse a report file written by `mvfed report` back into
    (provenance, rows, summary)."""
    provenance: dict[str, str] = {}
    rows: list[dict] = []
    summary: dict[str, tuple[float, float]] = {}
    section = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                provenance[key] = value
            elif line == "mode,repeat," + ",".join(METRIC_NAMES):
                section = "rows"
            elif line == "metric,mean,std":
                section = "summary"
            elif section == "rows":
                cells = line.split(",")
                rows.append(
                    {"mode": cells[0], "repeat": int(cells[1]),
                     **dict(zip(METRIC_NAMES, map(float, cells[2:]), strict=True))}
                )
            elif section == "summary":
                name, mean, std = line.split(",")
                summary[name] = (float(mean), float(std))
            else:
                raise AssertionError(f"report {path}: unexpected line {line!r}")
    return provenance, rows, summary
