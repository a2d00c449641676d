"""Federated sequence encoding: per-view FedAvg, then feature extraction.

Variable-length sequences are mapped to fixed-width embeddings by a
small encoder (per-step linear map, tanh, temporal mean-pool, affine
classifier head).  Each view's encoder trains independently across
clients with plain FedAvg over minibatch SGD; afterwards every client
embeds its own sequences locally, producing the per-view feature
matrices that the horizontal trainer consumes.  Parameters travel as
flat vectors, so the wire format stays model-agnostic.  The sequence
dataset types it trains on, `SequenceDataset` and `SequenceClientData`,
and its SGD settings, `TrainerConfig`, live in `data`; this module
imports them, so the three names resolve here too.

The views' federations run in lock-step (`fedcore.run_federations`).
The clients of every view of one feature width are zero-padded once,
when the parties are built, into one (slots, rows, steps, features)
stack that they share, slots view-major, each client holding its slot;
the stack keeps no step weights, which each batch gather forms from
its mask feature.  `SequenceClient.steps`, which the round driver
calls once a round with the clients of every view, checks every
broadcast, then runs the local SGD of each whole stack in lock-step
(`_sgd`), each row starting from the vector its own client received:
each client keeps its own shuffle stream, batch membership and short
final batch, step j of an epoch is one kernel call (`_grads`) over
batch j of every client that has one, and a client out of batches sits
the later steps out.  The kernel adds every padded term as an exact
zero after or between real ones, so each client's row is bit-identical
to what it computes alone, in its own view's federation.  A step covers
whole stacks: given part of one, it raises InvalidSpec, so the lone
`step` of a client is that of a stack of one; `loss_and_grad` is the
kernel on a stack of one and `local_training` the lock-step SGD of a
stack of one.  A client's own failure (a broadcast it cannot take, a
row that trains to non-finite values) raises PartyFailure naming it.
The trained stack is sealed (`fedcore.seal_rows`): checked finite once
and read-only, so each reply carries its client's row without a copy
and the server's FedAvg sums its view's rows of the stack.

The shuffle streams of every client, view and round, keyed (client,
view, round), are derived together when the parties are built
(`numerics.stream_states`) and kept as PCG64 (state, inc) pairs, one
tuple of them per round and stack.  `_sgd` sets each slice's pair on
one shared generator through one reused state dict and shuffles rows
pre-filled with arange, so each stream is bit for bit the `make_rng`
generator of its key; lone callers derive their start states the same
way.  The replies of each view's run of a stack are built in one
`FedMessage.batch` call from its sealed rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .data import SequenceClientData, SequenceDataset, TrainerConfig
from .errors import (
    DimensionMismatch,
    EmptyBatch,
    EmptyDataset,
    EmptySequence,
    InvalidSpec,
    PartyFailure,
)
from .fedcore import (
    FedMessage,
    Federation,
    InProcessTransport,
    MessageKind,
    PartyId,
    RoundLog,
    fedavg_aggregate,
    run_federations,
    run_rounds,
    seal_rows,
    stack_rows,
)
from .numerics import KEY_ENCODER, KEY_SHUFFLE, make_rng, pcg64_state, stream_states


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
        """The four parameter blocks of a vector, or of each row of an
        (S, n_params) stack."""
        if w.ndim not in (1, 2) or w.shape[-1] != self.n_params:
            raise DimensionMismatch(
                f"parameter vector has {w.shape}, arch needs {self.n_params}"
            )
        p, e, c = self.n_features, self.embed_dim, self.n_classes
        lead = w.shape[:-1]
        step = w[..., : p * e].reshape(*lead, p, e)
        step_bias = w[..., p * e : p * e + e]
        head = w[..., p * e + e : p * e + e + e * c].reshape(*lead, e, c)
        head_bias = w[..., p * e + e + e * c :]
        return step, step_bias, head, head_bias

    def pack(self, step, step_bias, head, head_bias) -> np.ndarray:
        lead = np.shape(step)[:-2]
        return np.concatenate(
            [np.reshape(a, (*lead, -1)) for a in (step, step_bias, head, head_bias)],
            axis=-1,
        )

    def init_params(self, seed: int, *key: int) -> np.ndarray:
        """Seeded start: scaled Gaussian maps, zero biases."""
        rng = make_rng(seed, *key)
        p, e, c = self.n_features, self.embed_dim, self.n_classes
        step = rng.standard_normal((p, e)) / np.sqrt(p)
        head = rng.standard_normal((e, c)) / np.sqrt(e)
        return self.pack(step, np.zeros(e), head, np.zeros(c))


@dataclass(frozen=True)
class _Padded:
    """Sets of sequences zero-padded into one stack, once.

    Slice s holds counts[s] sequences in rows 0..counts[s]-1 of x
    (S, n + 1, T, p + 1), whose last feature is the step mask.  Steps
    are padded at the end of each sequence and rows at the end of each
    slice; row n is padding in every slice, so a minibatch gather pads
    a batch by pointing at it.  Padding rows have length 1 and label 0.
    The stack keeps no step weights: a gather forms its batch's, mask /
    length, from x's mask feature.
    """

    x: np.ndarray
    lengths: np.ndarray
    y: np.ndarray
    counts: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[1] - 1

    def gather(self, live: np.ndarray, rows: np.ndarray, work: dict | None = None):
        """Batch tensors of slices live: rows (L, B) index each slice's
        sequences, n marking padding.  A one-row batch gets a padding row
        too, so every product in the kernel is a matrix product.  Returns
        x, the step weights mask / length, lengths, labels and the mask
        of real rows."""
        if rows.shape[1] < 2:
            rows = np.concatenate([rows, np.full((len(rows), 1), self.n)], axis=1)
        flat = self.x.reshape(-1, *self.x.shape[2:])
        x = _buffer(work, "x", (*rows.shape, *self.x.shape[2:]))
        np.take(flat, live[:, None] * (self.n + 1) + rows, axis=0, out=x, mode="clip")
        at = (live[:, None], rows)
        lengths = self.lengths[at]
        return x, x[..., -1] / lengths[..., None], lengths, self.y[at], rows < self.n


def _buffer(work: dict | None, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Uninitialised array of the given shape, kept in work[name] for
    the next call.  Lock-step steps, and a federation's rounds, share
    their large arrays this way: a fresh array of a few hundred KB can
    cost more to allocate than the arithmetic done on it."""
    size = math.prod(shape)
    if work is None:
        return np.empty(shape)
    if name not in work or work[name].size < size:
        work[name] = np.empty(size)
    return work[name][:size].reshape(shape)


def _pad(sets: Sequence[tuple[Sequence[np.ndarray], np.ndarray]]) -> _Padded:
    """Stack (sequences, labels) sets, zero-padded (see `_Padded`)."""
    counts = np.array([len(seqs) for seqs, _ in sets], dtype=np.int64)
    seqs = [s for group, _ in sets for s in group]
    n, width = int(counts.max()), seqs[0].shape[1]
    t_max = max(s.shape[0] for s in seqs)
    x = np.zeros((len(sets), n + 1, t_max, width + 1))
    lengths = np.zeros((len(sets), n + 1))
    y = np.zeros((len(sets), n + 1), dtype=np.int64)
    for i, (group, labels) in enumerate(sets):
        y[i, : len(group)] = labels
        for j, seq in enumerate(group):
            x[i, j, : seq.shape[0], :width] = seq
            lengths[i, j] = seq.shape[0]
    x[..., width] = np.arange(t_max) < lengths[..., None]
    return _Padded(x, np.maximum(lengths, 1.0), y, counts)


def _widen(arch: EncoderArch, w: np.ndarray) -> tuple[EncoderArch, np.ndarray]:
    """The same encoder with at least two units.

    The padded unit has zero weights, so its terms are exact zeros at
    the end of each sum.  It keeps every product in the kernel matrix
    by matrix: BLAS runs a one-row or one-column product as gemv, which
    groups its sums by position.
    """
    if arch.embed_dim > 1:
        return arch, w
    wide = EncoderArch(arch.n_features, 2, arch.n_classes)
    step, step_bias, head, head_bias = arch.unpack(w)
    w = wide.pack(
        np.pad(step, ((0, 0), (0, 0), (0, 1))), np.pad(step_bias, ((0, 0), (0, 1))),
        np.pad(head, ((0, 0), (0, 1), (0, 0))), head_bias,
    )
    return wide, w


def _forward(arch: EncoderArch, w: np.ndarray, x, lengths, work: dict | None = None):
    """Hidden states (S, B, T, e), embeddings (S, B, e) and scores of a
    batch stack; slice s runs under parameter row w[s].

    The step bias multiplies x's mask feature, so a padded step's hidden
    state is exactly 0.
    """
    step, step_bias, head, head_bias = arch.unpack(w)
    s, b, t, q = x.shape
    step_map = np.concatenate([step, step_bias[:, None]], axis=1)
    hidden = _buffer(work, "hidden", (s, b * t, arch.embed_dim))
    np.tanh(np.matmul(x.reshape(s, b * t, q), step_map, out=hidden), out=hidden)
    hidden = hidden.reshape(s, b, t, -1)
    # Step sums as ones^T H, which adds each entry in step order; the
    # second column of ones keeps it a matrix product.
    sums = (np.ones((t, 2)).T @ hidden.reshape(s * b, t, -1))[:, 0]
    pooled = sums.reshape(s, b, -1) / lengths[..., None]
    scores = pooled @ head + head_bias[:, None]
    return hidden, pooled, scores


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


_BLOCK = 24  # slices of d_pre's outer product formed at a time in `_grads`


def _grads(arch: EncoderArch, w: np.ndarray, batch, work: dict | None = None):
    """Each slice's log-probabilities and mean cross-entropy gradient.

    The kernel of every encoder step, over a batch stack from
    `_Padded.gather`: slice s's batch fills the first real[s].sum() rows;
    the rest, and every step past a sequence's length, are zero padding.
    Padding leaves each slice's bits as its own unpadded batch gives
    them: products run per row or over a fixed-length axis, and each sum
    over batch or steps adds in index order (BLAS forms P^T Q, P and Q
    stored k-major, as rank-one updates in k order; numpy sums over a
    non-last axis one index after another), so padded terms are exact
    zeros after or between real ones.
    """
    x, weights, lengths, y, real = batch
    e = arch.embed_dim
    wide, w = _widen(arch, w)
    hidden, pooled, scores = _forward(wide, w, x, lengths, work)
    s, b, t, q = x.shape
    log_probs = _log_softmax(scores)

    d_scores = np.exp(log_probs)
    d_scores[np.arange(s)[:, None], np.arange(b), y] -= 1.0
    d_scores /= real.sum(axis=1)[:, None, None]
    d_scores *= real[..., None]
    _, _, head, _ = wide.unpack(w)
    d_head = pooled.transpose(0, 2, 1) @ d_scores
    d_head_bias = d_scores.sum(axis=1)
    d_pooled = d_scores @ head.transpose(0, 2, 1)
    # d_pre, the pre-activation gradient, overwrites hidden: 1 - h^2 times
    # the outer product d_pooled[:, :, None] * weights[..., None], formed
    # _BLOCK slices at a time so that its buffer stays small.  einsum
    # makes the outer product without a broadcast's embed_dim-long inner
    # loops; it adds each product to +0.0, so a -0.0 product (a padded
    # step's) comes out +0.0.  Nothing downstream can tell, since d_pre
    # only enters x^T d_pre, whose sums start from +0.0 and so end alike
    # whatever the signs of their zeros.
    hidden *= hidden
    d_pre = np.subtract(1.0, hidden, out=hidden)
    for a in range(0, s, _BLOCK):
        part = slice(a, a + _BLOCK)
        outer = _buffer(work, "outer", d_pre[part].shape)
        d_pre[part] *= np.einsum("sbe,sbt->sbte", d_pooled[part], weights[part], out=outer)
    # One product per (slice, sequence) over its steps, then the batch
    # sum; the mask feature's row is the step bias gradient.  The products
    # reuse the outer product's buffer, which is free again.
    d_steps = np.matmul(
        x.reshape(s * b, t, q).transpose(0, 2, 1), d_pre.reshape(s * b, t, -1),
        out=_buffer(work, "outer", (s * b, q, d_pre.shape[-1])),
    )
    d_steps = d_steps.reshape(s, b, q, -1).sum(axis=1)
    grad = arch.pack(d_steps[:, :-1, :e], d_steps[:, -1, :e], d_head[:, :e], d_head_bias)
    return log_probs, grad


def loss_and_grad(
    arch: EncoderArch,
    w: np.ndarray,
    sequences: Sequence[np.ndarray],
    labels: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over the batch and its exact gradient:
    the encoder kernel on a stack of one."""
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
        if seq.shape[1] != arch.n_features:
            raise DimensionMismatch(
                f"sample {i} width {seq.shape[1]}, arch expects {arch.n_features}"
            )
    padded = _pad([(sequences, labels)])
    batch = padded.gather(np.zeros(1, dtype=np.int64), np.arange(len(sequences))[None])
    log_probs, grad = _grads(arch, np.asarray(w, dtype=float)[None], batch)
    loss = float(-log_probs[0, np.arange(len(sequences)), labels].mean())
    return loss, grad[0]


class _Scratch:
    """What the lock-step passes of lock-step federations reuse from
    pass to pass: the generator `_sgd` sets to each slice's stream in
    turn, and the kernel's large arrays (`_buffer`).  The passes must
    run one at a time."""

    def __init__(self) -> None:
        self.rng = np.random.Generator(np.random.PCG64(0))
        self.work: dict[str, np.ndarray] = {}


def _sgd(
    arch: EncoderArch,
    w: np.ndarray,
    data: _Padded,
    cfg: TrainerConfig,
    streams: Sequence[tuple[int, int]],
    scratch: _Scratch,
) -> np.ndarray:
    """`local_training` of every slice of a padded stack, in lock-step.

    Slice s starts from w[s] and shuffles with its own stream, which
    starts at the PCG64 (state, inc) pair streams[s], as
    `numerics.stream_states` gives it.  Every epoch's order of every
    slice is drawn first, slice by slice: its pair is set on scratch's
    generator through one reused state dict, and each epoch's order is a
    `Generator.shuffle` of a row pre-filled with arange, which is bit for
    bit `permutation`, so a stream runs through its epochs as a live
    generator would.  Step j of an epoch runs batch j of every slice
    that has one as one kernel call; a slice out of batches sits the
    later steps out.  Returns the (S, n_params) trained rows.  The steps
    share scratch's buffers (see `_buffer`).
    """
    w = np.array(w, dtype=float)
    counts = data.counts
    n_batches = -(-counts // cfg.batch_size)
    steps, most = int(n_batches.max()), int(counts.max())
    # A batch is at most `chunk` rows; past its own sequences a slice's
    # order is padding (row n), which sorts to the end of its batch.
    chunk = min(cfg.batch_size, data.n)
    rng, work = scratch.rng, scratch.work
    cols = np.arange(steps * chunk)
    order = np.repeat(
        np.where(cols < counts[:, None], cols, data.n)[None], cfg.local_epochs, axis=0
    )
    state = pcg64_state(0, 0)
    words = state["state"]
    for s, ((words["state"], words["inc"]), k) in enumerate(zip(streams, counts.tolist())):
        rng.bit_generator.state = state
        for row in order[:, s, :k]:
            rng.shuffle(row)
    batches = np.sort(order.reshape(cfg.local_epochs, len(counts), steps, chunk), axis=3)
    for epoch in batches:
        for j in range(steps):
            live = np.flatnonzero(n_batches > j)
            # Past the fullest batch of step j, every column is padding.
            rows = epoch[live, j, : min(chunk, most - j * chunk)]
            batch = data.gather(live, rows, work)
            if len(live) == len(counts):  # w itself, no gather and scatter
                _, grad = _grads(arch, w, batch, work)
                w -= cfg.learning_rate * grad
            else:
                _, grad = _grads(arch, w[live], batch, work)
                w[live] -= cfg.learning_rate * grad
    return w


def local_training_stack(
    datasets: Sequence[SequenceDataset],
    arch: EncoderArch,
    w: np.ndarray,
    cfg: TrainerConfig,
    seed_keys: Sequence[tuple[int, ...]],
) -> np.ndarray:
    """`local_training` of each dataset from its row of w (S, n_params),
    with its own seed key, run as one padded stack: the keys' shuffle
    streams are derived together, as (state, inc) pairs
    (`numerics.stream_states`).  Row s of the result is bit-identical to
    dataset s trained alone, and with zero epochs is w's row s."""
    for data in datasets:
        if data.n_samples == 0:
            raise EmptyDataset("local training needs at least one sequence")
    streams = stream_states(cfg.seed, [(KEY_SHUFFLE, *key) for key in seed_keys])
    padded = _pad([(d.sequences, d.y) for d in datasets])
    return _sgd(arch, w, padded, cfg, streams, _Scratch())


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
    A short final batch is used as-is.  This is the lock-step SGD of a
    stack of one.
    """
    w = np.asarray(w, dtype=float)[None]
    return local_training_stack([data], arch, w, cfg, [seed_key])[0]


@dataclass
class SequenceClient:
    """Runs local SGD on one view's sequences when polled.

    `data` is the padded stack its federation shares with every other
    view of its feature width, and `slot` this client's slice of it.
    `streams` holds, for every round below cfg.max_rounds, a tuple of
    the `numerics.stream_states` (state, inc) pair of every slot's
    shuffle stream; it is shared too, read-only as tuples are, as is the
    `scratch` its lock-step passes reuse.  A round past that table
    raises InvalidSpec.
    """

    party: PartyId
    data: _Padded
    slot: int
    arch: EncoderArch
    cfg: TrainerConfig
    view_index: int
    streams: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False, compare=False)
    scratch: _Scratch = field(repr=False, compare=False)

    @classmethod
    def steps(cls, clients, rnd: int, msgs: Sequence[FedMessage]) -> list[FedMessage]:
        """Every client's local SGD and its reply.  The clients of one
        padded stack, of every view of its width, run as one lock-step
        pass over the whole stack.  All messages are checked first, and
        every stack must be covered whole, else InvalidSpec before any
        SGD."""
        for c, msg in zip(clients, msgs):
            try:
                if msg is None or msg.kind is not MessageKind.PARAM_VECTOR:
                    raise ValueError(f"round {rnd}: expected a parameter broadcast")
                if msg.view != c.view_index:
                    raise ValueError(
                        f"round {rnd}: broadcast for view {msg.view}, "
                        f"client trains view {c.view_index}"
                    )
            except ValueError as exc:
                raise PartyFailure(rnd, c.party.id, exc) from exc
        stacks: dict[int, list[int]] = {}
        for i, c in enumerate(clients):
            stacks.setdefault(id(c.data), []).append(i)
        for idx in stacks.values():
            idx.sort(key=lambda i: clients[i].slot)
            first = clients[idx[0]]
            n = len(first.data.counts)
            if [clients[i].slot for i in idx] != list(range(n)):
                raise InvalidSpec(
                    f"round {rnd}: a step covers {len(idx)} of its stack's {n} clients"
                )
            if rnd >= len(first.streams):
                raise InvalidSpec(
                    f"round {rnd}: past the {len(first.streams)} rounds of the stream table"
                )
        replies: list[FedMessage] = [None] * len(clients)  # type: ignore[list-item]
        for idx in stacks.values():
            group = [clients[i] for i in idx]
            first = group[0]
            # Each run of one view's clients is stacked from its own
            # broadcasts and sealed apart, so its server sums it as it is.
            sizes = [len(list(run)) for _, run in itertools.groupby(c.view_index for c in group)]
            runs = list(itertools.pairwise(itertools.accumulate(sizes, initial=0)))
            stacked = _sgd(
                first.arch,
                np.concatenate([stack_rows([msgs[i].vector for i in idx[a:b]]) for a, b in runs]),
                first.data, first.cfg, first.streams[rnd], first.scratch,
            )
            for a, b in runs:
                built = FedMessage.batch(
                    rnd, [c.party for c in group[a:b]], MessageKind.PARAM_VECTOR,
                    view=group[a].view_index, vector=seal_rows(stacked[a:b]),
                )
                for i, reply in zip(idx[a:b], built):
                    replies[i] = reply
        return replies

    def step(self, rnd: int, msg: FedMessage | None) -> FedMessage:
        """This client's round alone: `steps` of a stack of one, which
        raises InvalidSpec unless this client is its stack's only one."""
        return type(self).steps([self], rnd, [msg])[0]


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


def make_sequence_parties(
    datasets: Sequence[SequenceDataset],
    view_index: int,
    arch: EncoderArch,
    cfg: TrainerConfig,
) -> tuple[SequenceServer, list[SequenceClient]]:
    """Server and one client per local dataset for one view's encoder:
    `_federations` of one view."""
    return _federations([(datasets, view_index, arch)], cfg)[0]


def _federations(
    views: Sequence[tuple[Sequence[SequenceDataset], int, EncoderArch]],
    cfg: TrainerConfig,
) -> list[tuple[SequenceServer, list[SequenceClient]]]:
    """Server and one client per local dataset for the encoder of each
    (datasets, view index, arch) in views.

    The views of one arch share one padded stack, made here once, with
    slots view-major: the first such view's clients hold its first
    slots, in order, then the next view's.  The shuffle streams of every
    (client, view, round) are derived here too, in one pass, and every
    client shares one `_Scratch`.
    """
    for datasets, _, arch in views:
        if len(datasets) == 0:
            raise InvalidSpec("sequence training needs at least one client")
        for data in datasets:
            if data.n_samples == 0:
                raise EmptyDataset("every client must hold at least one sequence")
            if data.n_features != arch.n_features:
                raise DimensionMismatch(
                    f"client width {data.n_features}, arch expects {arch.n_features}"
                )
    servers = [
        SequenceServer(
            w=arch.init_params(cfg.seed, KEY_ENCODER, view_index),
            counts=[data.n_samples for data in datasets], view_index=view_index,
        )
        for datasets, view_index, arch in views
    ]
    stacks: dict[EncoderArch, list[int]] = {}
    for v, (_, _, arch) in enumerate(views):
        stacks.setdefault(arch, []).append(v)
    # Every (view, client) slot, stack after stack, view-major within each.
    slots = [(v, l) for vs in stacks.values() for v in vs for l in range(len(views[v][0]))]
    keys = [(KEY_SHUFFLE, l, views[v][1], rnd) for rnd in range(cfg.max_rounds) for v, l in slots]
    states = stream_states(cfg.seed, keys)
    table = [tuple(states[r : r + len(slots)]) for r in range(0, len(states), len(slots))]
    scratch = _Scratch()
    parties: list[list[SequenceClient]] = [[] for _ in views]
    start = 0
    for arch, vs in stacks.items():
        padded = _pad([(d.sequences, d.y) for v in vs for d in views[v][0]])
        end = start + len(padded.counts)
        streams = tuple(row[start:end] for row in table)
        for slot, (v, l) in enumerate(slots[start:end]):
            parties[v].append(SequenceClient(
                party=PartyId.client(l), data=padded, slot=slot, arch=arch, cfg=cfg,
                view_index=views[v][1], streams=streams, scratch=scratch,
            ))
        start = end
    return list(zip(servers, parties))


def train_view_encoder(
    datasets: Sequence[SequenceDataset],
    view_index: int,
    arch: EncoderArch,
    cfg: TrainerConfig,
    transport=None,
    log: RoundLog | None = None,
) -> np.ndarray:
    """FedAvg rounds for one view across the given clients."""
    server, clients = make_sequence_parties(datasets, view_index, arch, cfg)
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

    Each view is its own FedAvg federation; they run in lock-step
    (`fedcore.run_federations`), and the views of one width share one
    padded stack, so a round's local SGD is one lock-step pass per
    width.  Views share no parameters, so each view's encoder, frames
    and round records are those of its `train_view_encoder` alone.
    transport (None: a fresh InProcessTransport) carries every view's
    traffic, and each view's records are appended to log in view order.
    The returned parameters are the final aggregates, which is also
    what feature extraction uses.
    """
    if len(clients) == 0:
        raise InvalidSpec("sequence training needs at least one client")
    n_views = clients[0].n_views
    n_classes = clients[0].views[0].n_classes
    for data in clients:
        if data.n_views != n_views:
            raise DimensionMismatch("clients disagree on view count")
    archs = [
        EncoderArch(
            n_features=clients[0].views[k].n_features,
            embed_dim=embed_dim, n_classes=n_classes,
        )
        for k in range(n_views)
    ]
    federations = _federations(
        [([c.views[k] for c in clients], k, arch) for k, arch in enumerate(archs)], cfg
    )
    transport = transport if transport is not None else InProcessTransport()
    logs = run_federations(
        [Federation(server, parties, transport) for server, parties in federations],
        cfg.max_rounds,
    )
    log = log if log is not None else RoundLog()
    for view_log in logs:
        for record in view_log.records:
            log.append(record)
    return SfedResult(archs=archs, params=[server.w for server, _ in federations], log=log)


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
    padded = _pad([(data.sequences, data.y)])
    # The padded rows in place; a lone sequence keeps the padding row,
    # so every product in `_forward` stays a matrix product.
    rows = max(data.n_samples, 2)
    x, lengths = padded.x[:, :rows], padded.lengths[:, :rows]
    _, pooled, _ = _forward(*_widen(arch, np.asarray(w, dtype=float)[None]), x, lengths)
    return pooled[0, : data.n_samples, : arch.embed_dim]
