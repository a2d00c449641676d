"""Shared builders for randomized training instances, and the references
and test doubles that several test modules compare against."""

from __future__ import annotations

import numpy as np
import scipy.linalg

import dataclasses
from itertools import product

import mvfed.mvl
from mvfed.errors import PartyFailure
from mvfed.experiments import GRID_EXPONENTS, split_indices
from mvfed.fedcore import FedMessage, MessageKind, PartyId, fedavg_aggregate, seal_rows
from mvfed.metrics import METRIC_NAMES, compute_metrics
from mvfed.mvl import (
    HyperParams,
    MultiViewDataset,
    MvlState,
    argmax_decode,
    objective,
    predict_mvl,
    train_mvl,
    update_consensus,
    update_pseudo_labels,
)
from mvfed.numerics import row_l2_norms


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


# Seeds and spawn keys at the edges of SeedSequence's word splitting.
BATCH_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1]
MIXED_KEYS = [(), (0,), (2**32,), (4, 1, 2), (2**64 + 3, 7), (9,), (1, 2, 3, 4, 5, 6)]


def refines(a, b):
    """Whether the raw solve of one system, by the engine that owns its
    order, takes the refinement pass."""
    if a.shape[0] <= 16:
        raw = np.linalg.solve(a, b)
    else:
        raw = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), b)
    return float(np.max(np.abs(b - a @ raw))) > 1e-10 * (1.0 + np.max(np.abs(b)))


def smoothed_l21(w, epsilon):
    """The smoothed l2,1 penalty of w, sum_i sqrt(||w_i||^2 + eps^2), as
    the objective reports it."""
    norms = row_l2_norms(w)
    return float(np.sqrt(norms * norms + epsilon * epsilon).sum())


def reference_objective(data, state, hp):
    """`objective` as it was written before the stacked form, kept as
    the reference for its order of operations."""
    total = hp.eta * float(np.sum((state.Z - data.labels) ** 2))
    for i in range(data.n_views):
        fit = data.views[i] @ state.W[i] - state.Zk[i]
        total += float(np.sum(fit * fit))
        total += hp.beta[i] * smoothed_l21(state.W[i], hp.epsilon)
        gap = state.Zk[i] - state.Z
        total += hp.zeta[i] * float(np.sum(gap * gap))
    return total


def assert_same_state(a, b):
    for k in range(len(a.W)):
        assert a.W[k].tobytes() == b.W[k].tobytes()
        assert a.Zk[k].tobytes() == b.Zk[k].tobytes()
    assert a.Z.tobytes() == b.Z.tobytes()


def alg3_local(data, hp, w, pseudo, consensus, max_local):
    """Reference local pass: pseudo-labels, consensus, then the refit."""
    w = [m.copy() for m in w]
    pseudo = [m.copy() for m in pseudo]
    consensus = consensus.copy()

    def value():
        return objective(data, MvlState(W=w, Zk=pseudo, Z=consensus), hp)

    prev = value()
    for _ in range(max_local):
        for k in range(data.n_views):
            pseudo[k] = update_pseudo_labels(
                data.views[k] @ w[k], consensus, hp.zeta[k]
            )
        consensus = update_consensus(pseudo, data.labels, hp.zeta, hp.eta)
        for k in range(data.n_views):
            w[k], _, _, _ = mvfed.mvl._fit_stats(
                data.views[k], pseudo[k], hp.beta[k], hp.epsilon,
                hp.max_inner, hp.tol, w_init=w[k],
            )
        v = value()
        if abs(v - prev) / max(1.0, abs(prev)) < hp.tol:
            break
        prev = v
    return w, pseudo, consensus


@dataclasses.dataclass
class ReferenceClient:
    """A horizontal client that runs `alg3_local` on its own rows."""

    party: PartyId
    data: MultiViewDataset
    hp: HyperParams
    max_local: int
    pseudo: list
    consensus: np.ndarray

    def step(self, rnd, msg):
        w, self.pseudo, self.consensus = alg3_local(
            self.data, self.hp, msg.matrices, self.pseudo, self.consensus,
            self.max_local,
        )
        return FedMessage.transform_set(rnd, self.party, w)


def fedavg_in_order(arrays, counts):
    """FedAvg as the terms are added one by one, in client order."""
    total = float(sum(counts))
    acc = (counts[0] / total) * arrays[0]
    for a, n in zip(arrays[1:], counts[1:]):
        acc += (n / total) * a
    return acc


class AveragingServer:
    """Broadcasts its state and replaces it by the mean of the replies;
    done() after stop_after rounds."""

    reply_kind = MessageKind.CONSENSUS

    def __init__(self, start, stop_after=None):
        self.party = PartyId.server()
        self.w = start
        self.rounds = 0
        self.stop_after = stop_after

    def broadcast(self, rnd):
        return FedMessage.consensus(rnd, self.party, self.w)

    def aggregate(self, rnd, replies):
        self.w = fedavg_aggregate([m.matrix for m in replies], [1] * len(replies))
        self.rounds += 1

    def done(self):
        return self.stop_after is not None and self.rounds >= self.stop_after


class ScalingClient:
    """Replies with the broadcast times its own factor, plus the round.
    `steps` answers every client it is given, of any federation, as one
    stack, and records how many it got; it names the first client with
    fail=True in a PartyFailure."""

    def __init__(self, party, factor, calls, fail=False):
        self.party = party
        self.factor = factor
        self.calls = calls
        self.fail = fail

    @classmethod
    def steps(cls, clients, rnd, msgs):
        clients[0].calls.append(len(clients))
        for c in clients:
            if c.fail:
                raise PartyFailure(rnd, c.party.id, RuntimeError("boom"))
        factors = np.array([c.factor for c in clients])[:, None, None]
        stack = np.stack([m.matrix for m in msgs]) * factors + rnd
        return [FedMessage.consensus(rnd, c.party, row) for c, row in zip(clients, seal_rows(stack))]


def scaling_federation(seed, n_clients, calls, stop_after=None):
    """A server and its clients, given in descending id order."""
    start = np.random.default_rng(seed).standard_normal((2, 3))
    clients = [
        ScalingClient(PartyId.client(i), 0.5 + 0.25 * i + seed, calls)
        for i in reversed(range(n_clients))
    ]
    return AveragingServer(start, stop_after), clients
