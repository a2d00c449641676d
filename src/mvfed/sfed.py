"""Federated sequence encoding: per-view FedAvg, then feature extraction.

Variable-length sequences are mapped to fixed-width embeddings by a
small encoder (per-step linear map, tanh, temporal mean-pool, affine
classifier head).  Each view's encoder trains independently across
clients with plain FedAvg over minibatch SGD; afterwards every client
embeds its own sequences locally, producing the per-view feature
matrices that the horizontal trainer consumes.  Parameters travel as
flat vectors, so the wire format stays model-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyBatch,
    EmptyDataset,
    EmptySequence,
    InvalidSpec,
)
from .fedcore import (
    FedMessage,
    MessageKind,
    PartyId,
    RoundLog,
    fedavg_aggregate,
    run_rounds,
)
from .numerics import KEY_ENCODER, KEY_SHUFFLE, make_rng


@dataclass
class SequenceDataset:
    """Variable-length sequences with one class index per sequence."""

    sequences: list[np.ndarray]
    y: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.y.ndim != 1 or len(self.sequences) != self.y.shape[0]:
            raise DimensionMismatch(
                f"{len(self.sequences)} sequences, label shape {self.y.shape}"
            )
        if self.n_classes < 2:
            raise InvalidSpec("need at least two classes")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.n_classes):
            raise InvalidSpec("class index out of range")
        width = None
        for i, seq in enumerate(self.sequences):
            if seq.ndim != 2:
                raise DimensionMismatch(f"sample {i}: expected 2-D steps array")
            if seq.shape[0] < 1:
                raise EmptySequence(f"sample {i} has no time steps")
            if not np.isfinite(seq).all():
                raise InvalidSpec(f"sample {i} contains non-finite entries")
            if width is None:
                width = seq.shape[1]
            elif seq.shape[1] != width:
                raise DimensionMismatch(
                    f"sample {i}: {seq.shape[1]} features, first sample has {width}"
                )

    @property
    def n_samples(self) -> int:
        return len(self.sequences)

    @property
    def n_features(self) -> int:
        if not self.sequences:
            raise EmptyDataset("no sequences to infer the feature width from")
        return self.sequences[0].shape[1]

    def subset(self, indices) -> "SequenceDataset":
        """Dataset restricted to the given sample indices (copied)."""
        idx = np.asarray(indices, dtype=np.int64)
        return SequenceDataset(
            sequences=[self.sequences[i].copy() for i in idx],
            y=self.y[idx].copy(),
            n_classes=self.n_classes,
        )


@dataclass
class SequenceClientData:
    """One client's sequences for every view, sharing the label vector."""

    views: list[SequenceDataset]

    def __post_init__(self):
        if not self.views:
            raise InvalidSpec("client needs at least one view")
        first = self.views[0]
        for k, view in enumerate(self.views[1:], start=1):
            if view.n_samples != first.n_samples or not np.array_equal(
                view.y, first.y
            ):
                raise DimensionMismatch(f"view {k} disagrees on sample labels")
            if view.n_classes != first.n_classes:
                raise DimensionMismatch(f"view {k} disagrees on class count")

    @property
    def n_samples(self) -> int:
        return self.views[0].n_samples

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def y(self) -> np.ndarray:
        return self.views[0].y

    @property
    def n_classes(self) -> int:
        return self.views[0].n_classes

    def class_indices(self) -> np.ndarray:
        return self.y

    def subset(self, indices) -> "SequenceClientData":
        return SequenceClientData(views=[v.subset(indices) for v in self.views])

    def select_views(self, view_indices) -> "SequenceClientData":
        if len(view_indices) == 0:
            raise InvalidSpec("view selection must keep at least one view")
        return SequenceClientData(views=[self.views[k] for k in view_indices])


@dataclass(frozen=True)
class EncoderArch:
    """Layer sizes of the sequence encoder; fixes the flat vector layout.

    The parameter vector concatenates the step map (n_features by
    embed_dim), its bias, the classifier (embed_dim by n_classes) and
    the classifier bias, in that order.
    """

    n_features: int
    embed_dim: int
    n_classes: int

    def __post_init__(self):
        if self.n_features < 1 or self.embed_dim < 1 or self.n_classes < 2:
            raise InvalidSpec(
                f"bad encoder sizes {self.n_features}, {self.embed_dim}, "
                f"{self.n_classes}"
            )

    @property
    def n_params(self) -> int:
        p, e, c = self.n_features, self.embed_dim, self.n_classes
        return p * e + e + e * c + c

    def unpack(self, w: np.ndarray) -> tuple[np.ndarray, ...]:
        if w.ndim != 1 or w.shape[0] != self.n_params:
            raise DimensionMismatch(
                f"parameter vector has {w.shape}, arch needs {self.n_params}"
            )
        p, e, c = self.n_features, self.embed_dim, self.n_classes
        step = w[: p * e].reshape(p, e)
        step_bias = w[p * e : p * e + e]
        head = w[p * e + e : p * e + e + e * c].reshape(e, c)
        head_bias = w[p * e + e + e * c :]
        return step, step_bias, head, head_bias

    def pack(self, step, step_bias, head, head_bias) -> np.ndarray:
        return np.concatenate(
            [np.ravel(step), np.ravel(step_bias), np.ravel(head), np.ravel(head_bias)]
        )

    def init_params(self, seed: int, *key: int) -> np.ndarray:
        """Seeded start: scaled Gaussian maps, zero biases."""
        rng = make_rng(seed, *key)
        p, e, c = self.n_features, self.embed_dim, self.n_classes
        step = rng.standard_normal((p, e)) / np.sqrt(p)
        head = rng.standard_normal((e, c)) / np.sqrt(e)
        return self.pack(step, np.zeros(e), head, np.zeros(c))


@dataclass(frozen=True)
class TrainerConfig:
    """Minibatch SGD settings for the federated encoder rounds."""

    batch_size: int = 16
    local_epochs: int = 1
    learning_rate: float = 0.05
    max_rounds: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidSpec(f"batch_size {self.batch_size} < 1")
        if self.learning_rate <= 0:
            raise InvalidSpec(f"learning_rate {self.learning_rate} <= 0")
        if self.local_epochs < 0 or self.max_rounds < 0:
            raise InvalidSpec("epoch and round counts must be nonnegative")


def _batch_tensors(
    sequences: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-padded (B, T, p) tensor plus step mask and lengths."""
    lengths = np.array([s.shape[0] for s in sequences], dtype=np.int64)
    t_max = int(lengths.max())
    width = sequences[0].shape[1]
    stacked = np.zeros((len(sequences), t_max, width))
    mask = np.zeros((len(sequences), t_max))
    for i, seq in enumerate(sequences):
        stacked[i, : seq.shape[0]] = seq
        mask[i, : seq.shape[0]] = 1.0
    return stacked, mask, lengths


def _forward_batch(arch: EncoderArch, w: np.ndarray, stacked, mask, lengths):
    """Activations for a padded batch: hidden states, embeddings, scores."""
    step, step_bias, head, head_bias = arch.unpack(w)
    hidden = np.tanh(stacked @ step + step_bias)
    pooled = (hidden * mask[:, :, None]).sum(axis=1) / lengths[:, None]
    scores = pooled @ head + head_bias
    return hidden, pooled, scores


def encoder_forward(
    arch: EncoderArch, w: np.ndarray, seq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Embedding and class scores for a single sequence."""
    seq = np.asarray(seq, dtype=float)
    if seq.ndim != 2:
        raise DimensionMismatch(f"expected (steps, features), got {seq.shape}")
    if seq.shape[0] == 0:
        raise EmptySequence("sequence has no time steps")
    if seq.shape[1] != arch.n_features:
        raise DimensionMismatch(
            f"sequence width {seq.shape[1]}, arch expects {arch.n_features}"
        )
    stacked, mask, lengths = _batch_tensors([seq])
    _, pooled, scores = _forward_batch(arch, w, stacked, mask, lengths)
    return pooled[0], scores[0]


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss_and_grad(
    arch: EncoderArch,
    w: np.ndarray,
    sequences: Sequence[np.ndarray],
    labels: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over the batch and its exact gradient."""
    if len(sequences) == 0:
        raise EmptyBatch("loss needs at least one sequence")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (len(sequences),):
        raise DimensionMismatch(
            f"{len(sequences)} sequences, label shape {labels.shape}"
        )
    for i, seq in enumerate(sequences):
        if seq.shape[0] == 0:
            raise EmptySequence(f"sample {i} has no time steps")
    stacked, mask, lengths = _batch_tensors(sequences)
    hidden, pooled, scores = _forward_batch(arch, w, stacked, mask, lengths)
    log_probs = _log_softmax(scores)
    batch = len(sequences)
    loss = float(-log_probs[np.arange(batch), labels].mean())

    d_scores = np.exp(log_probs)
    d_scores[np.arange(batch), labels] -= 1.0
    d_scores /= batch
    _, _, head, _ = arch.unpack(w)
    d_head = pooled.T @ d_scores
    d_head_bias = d_scores.sum(axis=0)
    d_pooled = d_scores @ head.T
    d_hidden = d_pooled[:, None, :] * (mask / lengths[:, None])[:, :, None]
    d_pre = d_hidden * (1.0 - hidden * hidden)
    d_step = np.einsum("btp,bte->pe", stacked, d_pre)
    d_step_bias = d_pre.sum(axis=(0, 1))
    return loss, arch.pack(d_step, d_step_bias, d_head, d_head_bias)


def dataset_loss(arch: EncoderArch, w: np.ndarray, data: SequenceDataset) -> float:
    """Mean cross-entropy over a whole dataset."""
    loss, _ = loss_and_grad(arch, w, data.sequences, data.y)
    return loss


def local_training(
    data: SequenceDataset,
    arch: EncoderArch,
    w: np.ndarray,
    cfg: TrainerConfig,
    seed_key: tuple[int, ...] = (),
) -> np.ndarray:
    """Epochs of shuffled minibatch SGD starting from the given vector.

    The shuffle stream is keyed by (cfg.seed, shuffle role, seed_key),
    so callers distinguish client, view and round through seed_key.
    The shuffle decides batch membership only; indices are sorted
    within each batch so the mean gradient sums in a canonical order.
    A short final batch is used as-is.
    """
    if data.n_samples == 0:
        raise EmptyDataset("local training needs at least one sequence")
    rng = make_rng(cfg.seed, KEY_SHUFFLE, *seed_key)
    w = np.asarray(w, dtype=float).copy()
    for _ in range(cfg.local_epochs):
        order = rng.permutation(data.n_samples)
        for start in range(0, data.n_samples, cfg.batch_size):
            batch = np.sort(order[start : start + cfg.batch_size])
            _, grad = loss_and_grad(
                arch, w, [data.sequences[i] for i in batch], data.y[batch]
            )
            w -= cfg.learning_rate * grad
    return w


@dataclass
class SequenceClient:
    """Runs local SGD on one view's sequences when polled."""

    party: PartyId
    data: SequenceDataset
    arch: EncoderArch
    cfg: TrainerConfig
    view_index: int

    def step(self, rnd: int, msg: FedMessage | None) -> FedMessage:
        if msg is None or msg.kind is not MessageKind.PARAM_VECTOR:
            raise ValueError(f"round {rnd}: expected a parameter broadcast")
        if msg.view != self.view_index:
            raise ValueError(
                f"round {rnd}: broadcast for view {msg.view}, "
                f"client trains view {self.view_index}"
            )
        w = local_training(
            self.data, self.arch, msg.vector, self.cfg,
            seed_key=(self.party.id, self.view_index, rnd),
        )
        return FedMessage.param_vector(rnd, self.party, self.view_index, w)


@dataclass
class SequenceServer:
    """FedAvg server for a single view's encoder."""

    reply_kind: ClassVar[MessageKind] = MessageKind.PARAM_VECTOR

    w: np.ndarray
    counts: list[int]
    view_index: int
    party: PartyId = field(default_factory=PartyId.server)

    def broadcast(self, rnd: int) -> FedMessage:
        return FedMessage.param_vector(rnd, self.party, self.view_index, self.w)

    def aggregate(self, rnd: int, replies: Sequence[FedMessage]) -> None:
        if any(m.view != self.view_index for m in replies):
            raise ValueError(f"round {rnd}: unexpected reply for view {self.view_index}")
        self.w = fedavg_aggregate(
            [m.vector for m in replies],
            [self.counts[m.sender.id] for m in replies],
        )


def train_view_encoder(
    datasets: Sequence[SequenceDataset],
    view_index: int,
    arch: EncoderArch,
    cfg: TrainerConfig,
    transport=None,
    log: RoundLog | None = None,
) -> np.ndarray:
    """FedAvg rounds for one view across the given clients."""
    if len(datasets) == 0:
        raise InvalidSpec("sequence training needs at least one client")
    counts = []
    for data in datasets:
        if data.n_samples == 0:
            raise EmptyDataset("every client must hold at least one sequence")
        if data.n_features != arch.n_features:
            raise DimensionMismatch(
                f"client width {data.n_features}, arch expects {arch.n_features}"
            )
        counts.append(data.n_samples)
    server = SequenceServer(
        w=arch.init_params(cfg.seed, KEY_ENCODER, view_index),
        counts=counts, view_index=view_index,
    )
    clients = [
        SequenceClient(
            party=PartyId.client(l), data=data, arch=arch, cfg=cfg,
            view_index=view_index,
        )
        for l, data in enumerate(datasets)
    ]
    run_rounds(server, clients, transport, max_rounds=cfg.max_rounds, log=log)
    return server.w


@dataclass(frozen=True)
class SfedResult:
    """Per-view encoder architectures and trained parameter vectors."""

    archs: list[EncoderArch]
    params: list[np.ndarray]
    log: RoundLog


def sfed_train(
    clients: Sequence[SequenceClientData],
    cfg: TrainerConfig,
    embed_dim: int = 8,
    transport=None,
    log: RoundLog | None = None,
) -> SfedResult:
    """Train every view's encoder independently across all clients.

    Views share nothing, so their training order is irrelevant; they
    run ascending here.  The returned parameters are the final
    aggregates, which is also what feature extraction uses.
    """
    if len(clients) == 0:
        raise InvalidSpec("sequence training needs at least one client")
    n_views = clients[0].n_views
    n_classes = clients[0].views[0].n_classes
    for data in clients:
        if data.n_views != n_views:
            raise DimensionMismatch("clients disagree on view count")
    log = log if log is not None else RoundLog()
    archs, params = [], []
    for k in range(n_views):
        arch = EncoderArch(
            n_features=clients[0].views[k].n_features,
            embed_dim=embed_dim, n_classes=n_classes,
        )
        w = train_view_encoder(
            [c.views[k] for c in clients], k, arch, cfg,
            transport=transport, log=log,
        )
        archs.append(arch)
        params.append(w)
    return SfedResult(archs=archs, params=params, log=log)


def extract_features(
    arch: EncoderArch, w: np.ndarray, data: SequenceDataset
) -> np.ndarray:
    """Embedding matrix (n_samples by embed_dim) for one view's sequences."""
    if data.n_samples == 0:
        return np.zeros((0, arch.embed_dim))
    if data.n_features != arch.n_features:
        raise DimensionMismatch(
            f"sequence width {data.n_features}, arch expects {arch.n_features}"
        )
    stacked, mask, lengths = _batch_tensors(data.sequences)
    _, pooled, _ = _forward_batch(arch, w, stacked, mask, lengths)
    return pooled
