import dataclasses
import math

import numpy as np
import pytest

import mvfed.experiments
import mvfed.sfed
from mvfed.errors import (
    DimensionMismatch,
    EmptyBatch,
    EmptyDataset,
    EmptySequence,
    InvalidSpec,
    MissingClient,
    PartyFailure,
)
from mvfed.fedcore import (
    SEQUENTIAL_KINDS,
    FedMessage,
    FramedByteTransport,
    InProcessTransport,
    MessageKind,
    PartyId,
    RoundLog,
    decode_message,
    disallowed_kinds,
)
from mvfed.numerics import KEY_ENCODER, KEY_SHUFFLE, make_rng, pcg64_state
from mvfed.sfed import (
    EncoderArch,
    SequenceClient,
    SequenceClientData,
    SequenceDataset,
    SfedResult,
    TrainerConfig,
    extract_features,
    fedavg_aggregate,
    local_training,
    local_training_stack,
    loss_and_grad,
    make_sequence_parties,
    sfed_train,
    train_view_encoder,
)
from suite_utils import record_calls, stage
from test_contracts import check_grads, check_local_encoders, check_local_stack, check_sfed_views

ARCH = EncoderArch(n_features=3, embed_dim=4, n_classes=2)


def make_sequences(seed, n=40, p=3, n_classes=2, t_range=(4, 9), drift=1.5):
    """Class-dependent mean direction plus noise, ragged lengths."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % n_classes
    rng.shuffle(y)
    directions = rng.standard_normal((n_classes, p))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    seqs = [
        drift * directions[y[i]]
        + 0.5 * rng.standard_normal((int(rng.integers(*t_range)), p))
        for i in range(n)
    ]
    return SequenceDataset(seqs, y, n_classes)


def random_params(arch, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(arch.n_params)


def finite_diff_grad(arch, w, seqs, labels, h=1e-5):
    grad = np.zeros_like(w)
    for j in range(w.shape[0]):
        up, down = w.copy(), w.copy()
        up[j] += h
        down[j] -= h
        lu, _ = loss_and_grad(arch, up, seqs, labels)
        ld, _ = loss_and_grad(arch, down, seqs, labels)
        grad[j] = (lu - ld) / (2 * h)
    return grad


class TestDatasetTypes:
    def test_validation(self):
        with pytest.raises(EmptySequence):
            SequenceDataset([np.zeros((0, 3))], np.array([0]), 2)
        with pytest.raises(DimensionMismatch):
            SequenceDataset(
                [np.zeros((2, 3)), np.zeros((2, 4))], np.array([0, 1]), 2
            )
        with pytest.raises(InvalidSpec):
            SequenceDataset([np.zeros((2, 3))], np.array([5]), 2)
        with pytest.raises(DimensionMismatch):
            SequenceDataset([np.zeros((2, 3))], np.array([0, 1]), 2)
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidSpec, match="sample 1"):
                SequenceDataset(
                    [np.zeros((2, 3)), np.array([[0.0, bad, 0.0]])], np.array([0, 1]), 2
                )

    OK, NAN = np.zeros((2, 3)), np.array([[0.0, np.nan, 0.0]])

    @pytest.mark.parametrize(
        "seqs, error, message",
        [
            ([OK, NAN, np.zeros((2, 4))], InvalidSpec, "sample 1 contains non-finite"),
            ([OK, NAN, np.zeros(3)], InvalidSpec, "sample 1 contains non-finite"),
            ([OK, NAN, np.zeros((0, 3))], InvalidSpec, "sample 1 contains non-finite"),
            ([OK, np.full((2, 4), np.nan)], InvalidSpec, "sample 1 contains non-finite"),
            ([OK, np.full(3, np.nan)], DimensionMismatch, "sample 1: expected 2-D"),
            ([OK, np.zeros((2, 4)), NAN], DimensionMismatch, "sample 1: 4 features, first sample has 3"),
        ],
        ids=["nan-before-width", "nan-before-ndim", "nan-before-empty", "nan-then-width",
             "ndim-then-nan", "width-before-nan"],
    )
    def test_first_fault_in_sample_order_is_named(self, seqs, error, message):
        # Steps are checked whole; a failing dataset names the fault that
        # the per-sample checks (2-D, steps, finite, width) meet first.
        with pytest.raises(error, match=message):
            SequenceDataset(seqs, np.arange(len(seqs)) % 2, 2)

    def test_client_data_shares_labels(self):
        a = make_sequences(1, n=10)
        b = make_sequences(2, n=10, p=5)
        b.y[:] = a.y
        bundle = SequenceClientData(views=[a, b])
        assert bundle.n_views == 2 and bundle.n_samples == 10
        c = make_sequences(3, n=10, p=4)
        c.y[:] = (a.y + 1) % 2
        with pytest.raises(DimensionMismatch):
            SequenceClientData(views=[a, c])

    def test_each_rule_has_one_message(self):
        with pytest.raises(InvalidSpec, match="need at least two classes"):
            EncoderArch(n_features=3, embed_dim=4, n_classes=1)
        for train in (
            lambda: sfed_train([], TrainerConfig()),
            lambda: make_sequence_parties([], 0, ARCH, TrainerConfig()),
        ):
            with pytest.raises(InvalidSpec, match="sequence training needs at least one client"):
                train()

    def test_arch_pack_unpack_round_trip(self):
        w = random_params(ARCH, 4)
        assert ARCH.n_params == 3 * 4 + 4 + 4 * 2 + 2
        assert np.array_equal(ARCH.pack(*ARCH.unpack(w)), w)
        with pytest.raises(DimensionMismatch):
            ARCH.unpack(w[:-1])

    def test_trainer_config_validation(self):
        with pytest.raises(InvalidSpec):
            TrainerConfig(batch_size=0)
        with pytest.raises(InvalidSpec):
            TrainerConfig(learning_rate=0.0)

    # A float or bool count used to pass construction and fail later: a
    # bare TypeError from `sfed_train` (max_rounds) or a PartyFailure
    # wrapping one (local_epochs, batch_size).
    @pytest.mark.parametrize("value", [2.5, True, False, -1, "4", None])
    def test_batch_size_must_be_an_integer(self, value):
        with pytest.raises(InvalidSpec, match="batch_size must be an integer >= 1"):
            TrainerConfig(batch_size=value)

    @pytest.mark.parametrize("value", [1.5, True, -1, np.float64(1.0)])
    def test_local_epochs_must_be_an_integer(self, value):
        with pytest.raises(InvalidSpec, match="local_epochs must be an integer >= 0"):
            TrainerConfig(local_epochs=value)

    @pytest.mark.parametrize("value", [2.5, True, -1, np.float64(2.0)])
    def test_max_rounds_must_be_an_integer(self, value):
        with pytest.raises(InvalidSpec, match="max_rounds must be an integer >= 0"):
            TrainerConfig(max_rounds=value)

    # A negative seed used to fail only when the first stream was drawn.
    @pytest.mark.parametrize("value", [-1, 1.5, True])
    def test_seed_must_be_an_integer(self, value):
        with pytest.raises(InvalidSpec, match="seed must be an integer >= 0"):
            TrainerConfig(seed=value)

    def test_numpy_integer_counts_accepted(self):
        cfg = TrainerConfig(batch_size=np.int64(3), local_epochs=np.int32(0), max_rounds=np.uint8(2))
        assert (cfg.batch_size, cfg.local_epochs, cfg.max_rounds) == (3, 0, 2)


def embed_one(arch, w, seq, label=0):
    """Embedding of a single sequence, through extract_features."""
    return extract_features(arch, w, SequenceDataset([seq], np.array([label]), 2))[0]


def dataset_loss(arch, w, data):
    loss, _ = loss_and_grad(arch, w, data.sequences, data.y)
    return loss


def reference_sgd(data, arch, w, cfg, key):
    """Minibatch SGD one batch at a time, every epoch drawing its order
    from one live `make_rng` shuffle stream."""
    rng = make_rng(cfg.seed, KEY_SHUFFLE, *key)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(data.n_samples)
        for start in range(0, data.n_samples, cfg.batch_size):
            batch = np.sort(order[start : start + cfg.batch_size])
            _, grad = loss_and_grad(arch, w, [data.sequences[i] for i in batch], data.y[batch])
            w = w - cfg.learning_rate * grad
    return w


class TestForward:
    def test_zero_weights(self):
        seq = np.random.default_rng(5).standard_normal((6, 3))
        emb = embed_one(ARCH, np.zeros(ARCH.n_params), seq)
        assert np.array_equal(emb, np.zeros(4))
        loss, grad = loss_and_grad(ARCH, np.zeros(ARCH.n_params), [seq], np.array([0]))
        assert loss == math.log(2.0)
        biased = ARCH.pack(
            np.zeros((3, 4)), np.zeros(4), np.zeros((4, 2)), np.array([1.0, 2.0])
        )
        loss, grad = loss_and_grad(ARCH, biased, [seq], np.array([0]))
        assert math.isclose(loss, math.log1p(math.exp(1.0)), rel_tol=1e-15)
        d_head_bias = ARCH.unpack(grad)[3]
        assert np.allclose(d_head_bias, [1 / (1 + math.e) - 1, math.e / (1 + math.e)])

    def test_single_step_pooling(self):
        w = random_params(ARCH, 6)
        step, step_bias, head, head_bias = ARCH.unpack(w)
        seq = np.random.default_rng(7).standard_normal((1, 3))
        emb = embed_one(ARCH, w, seq)
        expected = np.tanh(seq[0] @ step + step_bias)
        assert np.allclose(emb, expected, atol=1e-15)
        scores = expected @ head + head_bias
        loss, _ = loss_and_grad(ARCH, w, [seq], np.array([1]))
        want = np.log(np.exp(scores).sum()) - scores[1]
        assert math.isclose(loss, want, rel_tol=1e-14)

    def test_time_permutation_invariance(self):
        w = random_params(ARCH, 8)
        rng = np.random.default_rng(9)
        seq = rng.standard_normal((7, 3))
        shuffled = seq[rng.permutation(7)]
        assert np.allclose(embed_one(ARCH, w, seq), embed_one(ARCH, w, shuffled), atol=1e-12)
        loss, grad = loss_and_grad(ARCH, w, [seq], np.array([1]))
        loss_p, grad_p = loss_and_grad(ARCH, w, [shuffled], np.array([1]))
        assert math.isclose(loss, loss_p, rel_tol=1e-12)
        assert np.allclose(grad, grad_p, atol=1e-12)

    def test_input_validation(self):
        w = np.zeros(ARCH.n_params)
        with pytest.raises(EmptySequence):
            loss_and_grad(ARCH, w, [np.zeros((0, 3))], np.array([0]))
        with pytest.raises(DimensionMismatch):
            loss_and_grad(ARCH, w, [np.zeros((4, 5))], np.array([0]))
        with pytest.raises(DimensionMismatch):
            extract_features(ARCH, w, SequenceDataset([np.zeros((4, 5))], np.array([0]), 2))


class TestLoss:
    def test_uniform_scores_log2(self):
        data = make_sequences(10, n=8)
        loss, _ = loss_and_grad(
            ARCH, np.zeros(ARCH.n_params), data.sequences, data.y
        )
        assert math.isclose(loss, math.log(2.0), rel_tol=1e-14)

    def test_matches_per_sample_oracle(self):
        data = make_sequences(11, n=6)
        w = random_params(ARCH, 12)
        loss, grad = loss_and_grad(ARCH, w, data.sequences, data.y)
        losses, grads = [], []
        for seq, label in zip(data.sequences, data.y):
            li, gi = loss_and_grad(ARCH, w, [seq], np.array([label]))
            losses.append(li)
            grads.append(gi)
        assert math.isclose(loss, float(np.mean(losses)), rel_tol=1e-12)
        assert np.allclose(grad, np.mean(grads, axis=0), atol=1e-12)

    def test_gradient_finite_differences(self):
        data = make_sequences(13, n=3, t_range=(2, 6))
        w = 0.5 * random_params(ARCH, 14)
        _, grad = loss_and_grad(ARCH, w, data.sequences, data.y)
        fd = finite_diff_grad(ARCH, w, data.sequences, data.y)
        rel = np.abs(grad - fd) / np.maximum(
            1.0, np.maximum(np.abs(grad), np.abs(fd))
        )
        assert float(rel.max()) < 1e-5

    def test_duplication_invariance(self):
        data = make_sequences(15, n=5)
        w = random_params(ARCH, 16)
        loss, grad = loss_and_grad(ARCH, w, data.sequences, data.y)
        doubled_seqs = data.sequences + data.sequences
        doubled_y = np.concatenate([data.y, data.y])
        loss2, grad2 = loss_and_grad(ARCH, w, doubled_seqs, doubled_y)
        assert math.isclose(loss, loss2, rel_tol=1e-12)
        assert np.allclose(grad, grad2, atol=1e-12)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            loss_and_grad(ARCH, np.zeros(ARCH.n_params), [], np.array([]))


class TestLocalTraining:
    def test_zero_epochs_unchanged(self):
        data = make_sequences(17, n=12)
        w = random_params(ARCH, 18)
        cfg = TrainerConfig(local_epochs=0)
        assert np.array_equal(local_training(data, ARCH, w, cfg), w)

    def test_one_epoch_one_batch_is_one_step(self):
        data = make_sequences(19, n=10)
        w = random_params(ARCH, 20)
        cfg = TrainerConfig(
            batch_size=64, local_epochs=1, learning_rate=0.3, seed=5
        )
        got = local_training(data, ARCH, w, cfg, seed_key=(2, 0, 7))
        _, grad = loss_and_grad(ARCH, w, data.sequences, data.y)
        assert got.tobytes() == (w - 0.3 * grad).tobytes()

    def test_batches_follow_seeded_shuffle(self):
        data = make_sequences(21, n=9)
        w = random_params(ARCH, 22)
        cfg = TrainerConfig(batch_size=4, local_epochs=1, learning_rate=0.1, seed=3)
        got = local_training(data, ARCH, w, cfg, seed_key=(0, 1, 2))
        rng = make_rng(3, KEY_SHUFFLE, 0, 1, 2)
        order = rng.permutation(9)
        expected = w.copy()
        for start in range(0, 9, 4):
            batch = np.sort(order[start : start + 4])
            _, grad = loss_and_grad(
                ARCH, expected, [data.sequences[i] for i in batch], data.y[batch]
            )
            expected = expected - 0.1 * grad
        assert got.tobytes() == expected.tobytes()

    def test_epochs_continue_one_stream(self):
        data = make_sequences(23, n=9)
        w = random_params(ARCH, 24)
        cfg = TrainerConfig(batch_size=4, local_epochs=3, learning_rate=0.1, seed=3)
        got = local_training(data, ARCH, w, cfg, seed_key=(0, 1, 2))
        assert got.tobytes() == reference_sgd(data, ARCH, w, cfg, (0, 1, 2)).tobytes()

    def test_local_encoders_equal_per_dataset_loop(self):
        # Isolated encoders run rounds x local epochs epochs on one stream each.
        cfg = TrainerConfig(batch_size=4, local_epochs=2, learning_rate=0.1, max_rounds=3, seed=9)
        check_local_encoders(ARCH, ragged_clients(40), cfg, view=1)

    def test_descent_at_small_rate(self):
        for seed in range(10):
            data = make_sequences(100 + seed, n=30)
            w = ARCH.init_params(seed)
            cfg = TrainerConfig(
                batch_size=8, local_epochs=2, learning_rate=0.01, seed=seed
            )
            before = dataset_loss(ARCH, w, data)
            after = dataset_loss(ARCH, local_training(data, ARCH, w, cfg), data)
            assert after < before

    def test_empty_dataset(self):
        empty = SequenceDataset([], np.array([], dtype=np.int64), 2)
        with pytest.raises(EmptyDataset):
            local_training(empty, ARCH, np.zeros(ARCH.n_params), TrainerConfig())


class TestFedAvg:
    def test_single_identity(self):
        v = np.random.default_rng(23).standard_normal(11)
        assert np.array_equal(fedavg_aggregate([v], [9]), v)

    def test_opposite_vectors_cancel(self):
        v = np.random.default_rng(24).standard_normal(7)
        out = fedavg_aggregate([v, -v], [5, 5])
        assert np.array_equal(out, np.zeros(7))

    def test_hand_value(self):
        out = fedavg_aggregate([np.array([0.0]), np.array([4.0])], [1, 3])
        assert np.array_equal(out, np.array([3.0]))

    def test_envelope_and_weight_sum(self):
        rng = np.random.default_rng(25)
        vs = [rng.standard_normal(6) for _ in range(4)]
        counts = [3, 8, 1, 2]
        out = fedavg_aggregate(vs, counts)
        stack = np.stack(vs)
        assert np.all(out >= stack.min(axis=0) - 1e-15)
        assert np.all(out <= stack.max(axis=0) + 1e-15)
        assert abs(sum(n / sum(counts) for n in counts) - 1.0) <= 1e-12

    def test_validation(self):
        with pytest.raises(MissingClient):
            fedavg_aggregate([], [])
        with pytest.raises(MissingClient):
            fedavg_aggregate([np.zeros(3)], [1, 2])
        with pytest.raises(DimensionMismatch):
            fedavg_aggregate([np.zeros(3), np.zeros(4)], [1, 1])
        with pytest.raises(InvalidSpec):
            fedavg_aggregate([np.zeros(3), np.zeros(3)], [1, 0])


def two_view_clients(seed, m=3, n=20):
    clients = []
    for l in range(m):
        a = make_sequences(seed + 10 * l, n=n, p=3)
        b = make_sequences(seed + 10 * l + 5, n=n, p=5)
        b.y[:] = a.y
        clients.append(SequenceClientData(views=[a, b]))
    return clients


class TestProtocol:
    def test_identical_clients_full_batch_match_solo(self):
        data = make_sequences(26, n=16)
        cfg = TrainerConfig(
            batch_size=100, local_epochs=2, learning_rate=0.05,
            max_rounds=3, seed=7,
        )
        solo = train_view_encoder([data], 0, ARCH, cfg)
        pair = train_view_encoder([data, data], 0, ARCH, cfg)
        assert solo.tobytes() == pair.tobytes()

    def test_zero_rounds_returns_init(self):
        data = make_sequences(27, n=10)
        cfg = TrainerConfig(max_rounds=0, seed=11)
        log = RoundLog()
        w = train_view_encoder([data], 0, ARCH, cfg, log=log)
        assert np.array_equal(w, ARCH.init_params(11, KEY_ENCODER, 0))
        assert log.n_rounds == 0

    def test_sfed_trains_every_view(self):
        clients = two_view_clients(28)
        cfg = TrainerConfig(batch_size=8, max_rounds=2, seed=13)
        result = sfed_train(clients, cfg, embed_dim=4)
        assert isinstance(result, SfedResult)
        assert len(result.params) == 2
        assert result.params[0].shape == (result.archs[0].n_params,)
        assert result.archs[1].n_features == 5

    def test_view_order_independence(self):
        clients = two_view_clients(29)
        cfg = TrainerConfig(batch_size=8, max_rounds=2, seed=17)
        result = sfed_train(clients, cfg, embed_dim=4)
        arch1 = result.archs[1]
        alone = train_view_encoder(
            [c.views[1] for c in clients], 1, arch1, cfg
        )
        assert alone.tobytes() == result.params[1].tobytes()

    def test_deterministic_across_transports(self):
        clients = two_view_clients(30, m=2)
        cfg = TrainerConfig(batch_size=8, max_rounds=2, seed=19)
        a = sfed_train(clients, cfg, embed_dim=4)
        b = sfed_train(clients, cfg, embed_dim=4, transport=FramedByteTransport())
        for wa, wb in zip(a.params, b.params):
            assert wa.tobytes() == wb.tobytes()

    def test_logged_bytes_equal_over_both_transports(self):
        clients = two_view_clients(32, m=3)
        cfg = TrainerConfig(batch_size=8, max_rounds=2, seed=29)
        framed = FramedByteTransport(capture=True)
        a = sfed_train(clients, cfg, embed_dim=4)
        b = sfed_train(clients, cfg, embed_dim=4, transport=framed)
        assert a.log.total_bytes() == b.log.total_bytes() == sum(map(len, framed.captured))

    def test_message_audit(self):
        clients = two_view_clients(31, m=2)
        cfg = TrainerConfig(batch_size=8, max_rounds=2, seed=23)
        transport = FramedByteTransport(capture=True)
        log = RoundLog()
        sfed_train(clients, cfg, embed_dim=4, transport=transport, log=log)
        assert log.message_kinds() == {MessageKind.PARAM_VECTOR}
        assert disallowed_kinds(log, SEQUENTIAL_KINDS) == set()
        raw = [
            np.ascontiguousarray(seq).astype("<f8").tobytes()
            for c in clients for view in c.views for seq in view.sequences
        ]
        for frame in transport.captured:
            assert decode_message(frame).kind is MessageKind.PARAM_VECTOR
            for blob in raw:
                assert frame.find(blob) == -1

    def test_loss_decreases_over_rounds(self):
        clients = two_view_clients(32, m=3, n=30)
        cfg = TrainerConfig(
            batch_size=8, local_epochs=2, learning_rate=0.05,
            max_rounds=5, seed=29,
        )
        result = sfed_train(clients, cfg, embed_dim=4)
        for k, (arch, w) in enumerate(zip(result.archs, result.params)):
            pooled = [c.views[k] for c in clients]
            before = np.mean(
                [dataset_loss(arch, arch.init_params(29, KEY_ENCODER, k), d) for d in pooled]
            )
            after = np.mean([dataset_loss(arch, w, d) for d in pooled])
            assert after < before

    def test_mixed_widths_rejected(self):
        data = make_sequences(33, n=10, p=3)
        other = make_sequences(34, n=10, p=4)
        cfg = TrainerConfig(max_rounds=1)
        with pytest.raises(DimensionMismatch):
            train_view_encoder([data, other], 0, ARCH, cfg)


class TestExtract:
    def test_zero_weights_zero_features(self):
        data = make_sequences(35, n=9)
        out = extract_features(ARCH, np.zeros(ARCH.n_params), data)
        assert out.shape == (9, 4)
        assert np.array_equal(out, np.zeros((9, 4)))

    def test_matches_forward_per_sample(self):
        data = make_sequences(36, n=7)
        w = random_params(ARCH, 37)
        out = extract_features(ARCH, w, data)
        for i, seq in enumerate(data.sequences):
            assert np.allclose(out[i], embed_one(ARCH, w, seq), atol=1e-12)

    def test_empty_dataset_empty_matrix(self):
        empty = SequenceDataset([], np.array([], dtype=np.int64), 2)
        out = extract_features(ARCH, np.zeros(ARCH.n_params), empty)
        assert out.shape == (0, 4)

    @pytest.mark.parametrize("arch", [ARCH, EncoderArch(3, 1, 2)], ids=["3x4", "3x1"])
    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_equals_gathered_batch(self, arch, n):
        # The embedding as it was computed on a gathered copy of the rows.
        data = make_sequences(38 + n, n=n)
        w = random_params(arch, 39)
        padded = mvfed.sfed._pad([(data.sequences, data.y)])
        x, _, lengths, _, _ = padded.gather(np.zeros(1, dtype=np.int64), np.arange(n)[None])
        wide = mvfed.sfed._widen(arch, w[None])
        _, pooled, _ = mvfed.sfed._forward(*wide, x, lengths)
        want = pooled[0, :n, : arch.embed_dim]
        assert extract_features(arch, w, data).tobytes() == want.tobytes()


def ragged_clients(seed, p=3):
    """Clients of 5, 9 and 14 sequences with different longest lengths."""
    return [
        make_sequences(seed + i, n=n, p=p, t_range=t_range)
        for i, (n, t_range) in enumerate([(5, (3, 8)), (9, (10, 25)), (14, (1, 6))])
    ]


RAGGED_CFG = TrainerConfig(batch_size=4, local_epochs=2, learning_rate=0.2, max_rounds=3, seed=31)


class TestCohort:
    @pytest.mark.parametrize("arch", [ARCH, EncoderArch(1, 1, 2)], ids=["3x4", "1x1"])
    def test_ragged_replies_match_solo_training(self, arch):
        clients = [SequenceClientData(views=[d]) for d in ragged_clients(50, p=arch.n_features)]
        assert check_sfed_views(clients, RAGGED_CFG, arch.embed_dim) == [3]

    def test_two_epoch_stack_and_federation_match_reference(self):
        datasets = ragged_clients(65)
        starts = np.stack([random_params(ARCH, 66 + l) for l in range(3)])
        keys = [(l, 1, 0) for l in range(3)]
        stacked = local_training_stack(datasets, ARCH, starts, RAGGED_CFG, keys)
        server, clients = make_sequence_parties(datasets, 1, ARCH, RAGGED_CFG)
        sent = server.broadcast(2)
        replies = stage(clients, 2, [sent] * 3)
        for l, (data, start, row) in enumerate(zip(datasets, starts, stacked)):
            want = reference_sgd(data, ARCH, start, RAGGED_CFG, keys[l])
            assert row.tobytes() == want.tobytes()
            want = reference_sgd(data, ARCH, sent.vector, RAGGED_CFG, (l, 1, 2))
            assert replies[l].vector.tobytes() == want.tobytes()
            # A lone step is that of a stack of one, the client's own.
            _, (alone,) = make_sequence_parties([data], 1, ARCH, RAGGED_CFG)
            want = reference_sgd(data, ARCH, sent.vector, RAGGED_CFG, (0, 1, 2))
            assert alone.step(2, sent).vector.tobytes() == want.tobytes()

    def test_stack_rows_match_solo_training(self):
        starts = np.stack([random_params(ARCH, 61 + l) for l in range(3)])
        keys = [(l, 1, 0) for l in range(3)]
        check_local_stack(ARCH, ragged_clients(60), starts, RAGGED_CFG, keys)

    @pytest.mark.parametrize("arch", [ARCH, EncoderArch(1, 1, 2)], ids=["3x4", "1x1"])
    def test_kernel_slices_match_each_slice_alone(self, arch):
        # Slices of 1, 3, 6 and 2 sequences, some one step long, each
        # batch a sorted subset of its slice.
        rng = np.random.default_rng(75)
        sets, batches = [], []
        for count, t_range in [(1, (1, 2)), (3, (1, 3)), (6, (2, 9)), (2, (1, 2))]:
            data = make_sequences(76 + count, n=count, p=arch.n_features, t_range=t_range)
            sets.append((data.sequences, data.y))
            batches.append(np.sort(rng.permutation(count)[: max(1, count - 1)]))
        w = np.stack([random_params(arch, 77 + s) for s in range(len(sets))])
        check_grads(arch, sets, batches, w)

    def test_member_with_other_broadcast_stays_in_the_stack(self, monkeypatch):
        datasets = ragged_clients(70)
        server, clients = make_sequence_parties(datasets, 0, ARCH, RAGGED_CFG)
        sent = server.broadcast(0)
        other = FedMessage.param_vector(0, PartyId.server(), 0, sent.vector + 0.5)
        messages = [sent, other, sent]
        expected = [
            local_training(data, ARCH, msg.vector, RAGGED_CFG, seed_key=(l, 0, 0))
            for l, (data, msg) in enumerate(zip(datasets, messages))
        ]
        sizes = record_calls(monkeypatch, mvfed.sfed, "_sgd", 1)
        replies = stage(clients, 0, messages)
        for reply, solo in zip(replies, expected):
            assert reply.vector.tobytes() == solo.tobytes()
        assert sizes == [3]

    def test_subset_of_clients_steps_its_own_slots(self, monkeypatch):
        # A step covers whole stacks: part of one, a lone client of a
        # stack of three included, raises before any SGD.  The whole
        # stack, in any order, steps as the shared stack itself.
        datasets = ragged_clients(72)
        server, clients = make_sequence_parties(datasets, 1, ARCH, RAGGED_CFG)
        sent = server.broadcast(0)
        sizes = record_calls(monkeypatch, mvfed.sfed, "_sgd", 1)
        with pytest.raises(InvalidSpec, match="round 0: a step covers 2 of its block's 3 clients"):
            stage([clients[2], clients[0]], 0, [sent, sent])
        with pytest.raises(InvalidSpec, match="round 0: a step covers 1 of its block's 3 clients"):
            clients[1].step(0, sent)
        assert sizes == []
        replies = stage([clients[2], clients[0], clients[1]], 0, [sent] * 3)
        assert sizes == [3]
        for l, reply in zip((2, 0, 1), replies):
            solo = local_training(datasets[l], ARCH, sent.vector, RAGGED_CFG, seed_key=(l, 1, 0))
            assert reply.sender == clients[l].party
            assert reply.vector.tobytes() == solo.tobytes()
        wrong = FedMessage.param_vector(0, PartyId.server(), 0, sent.vector)
        with pytest.raises(PartyFailure) as err:
            stage(clients, 0, [sent, wrong, sent])
        assert (err.value.round_index, err.value.party_id) == (0, 1)
        assert type(err.value.cause) is ValueError and "view 0" in str(err.value.cause)

    def test_wrong_length_broadcast_names_its_client(self, monkeypatch):
        # A 27-entry vector for the 26-parameter arch is its client's
        # DimensionMismatch, before any SGD: stacked, where only client 1
        # gets it, and in a lone step of a federation of one.
        datasets = ragged_clients(74)
        server, clients = make_sequence_parties(datasets, 0, ARCH, RAGGED_CFG)
        _, (alone,) = make_sequence_parties(datasets[:1], 0, ARCH, RAGGED_CFG)
        sent = server.broadcast(0)
        long = FedMessage.param_vector(0, PartyId.server(), 0, np.append(sent.vector, 0.0))
        assert ARCH.n_params == 26
        sizes = record_calls(monkeypatch, mvfed.sfed, "_sgd", 1)
        for step, party in [
            (lambda: stage(clients, 0, [sent, long, long]), 1),
            (lambda: alone.step(0, long), 0),
        ]:
            with pytest.raises(PartyFailure) as err:
                step()
            assert (err.value.round_index, err.value.party_id) == (0, party)
            assert type(err.value.cause) is DimensionMismatch
        assert sizes == []

    def test_framed_transport_stages_and_matches_in_process(self, monkeypatch):
        # Over framed bytes every client decodes its own broadcast; each
        # view's clients still step as one stack.
        clients = []
        for a in ragged_clients(95):
            b = make_sequences(95 + a.n_samples, n=a.n_samples, p=5)
            b.y[:] = a.y
            clients.append(SequenceClientData(views=[a, b]))
        in_process = sfed_train(clients, RAGGED_CFG, embed_dim=4)
        sizes = record_calls(monkeypatch, mvfed.sfed, "_sgd", 1)
        framed = sfed_train(clients, RAGGED_CFG, embed_dim=4, transport=FramedByteTransport())
        assert sizes == [3] * (2 * RAGGED_CFG.max_rounds)
        for a, b in zip(in_process.params, framed.params):
            assert a.tobytes() == b.tobytes()
        assert [r.messages for r in framed.log.records] == [
            r.messages for r in in_process.log.records
        ]

    def test_failing_member_is_named(self, monkeypatch):
        datasets = ragged_clients(80)
        datasets[2].sequences[3][0, 0] = 777.0
        original = mvfed.sfed._grads

        def failing(arch, w, batch, *args):
            if (batch[0] == 777.0).any():
                raise FloatingPointError("injected")
            return original(arch, w, batch, *args)

        monkeypatch.setattr(mvfed.sfed, "_grads", failing)
        sizes = record_calls(monkeypatch, mvfed.sfed, "_sgd", 1)
        # A failure of the lock-step SGD is no one client's: it ends the
        # run as it is, after the one stack of all three clients.
        with pytest.raises(FloatingPointError, match="injected"):
            train_view_encoder(datasets, 0, ARCH, RAGGED_CFG)
        assert sizes == [3]

    def test_one_kernel_call_per_step_and_one_padding_per_client(self, monkeypatch):
        clients = []
        for a in ragged_clients(90):
            b = make_sequences(90 + a.n_samples, n=a.n_samples, p=5)
            b.y[:] = a.y
            clients.append(SequenceClientData(views=[a, b]))
        kernel = record_calls(monkeypatch, mvfed.sfed, "_grads", 1)
        padded = record_calls(monkeypatch, mvfed.sfed, "_pad", 0)
        sfed_train(clients, RAGGED_CFG, embed_dim=4)
        # Batches of 4 over 5, 9 and 14 sequences: the longest client
        # takes 4 steps an epoch, the three 2 + 3 + 4 client-batches.
        steps = RAGGED_CFG.local_epochs * 4
        assert len(kernel) == 2 * RAGGED_CFG.max_rounds * steps
        assert padded == [3, 3]
        # All three clients run every step their longest member runs
        # until the shorter ones run out of batches.
        assert kernel[:steps] == [3, 3, 2, 1] * RAGGED_CFG.local_epochs


def mixed_width_clients(seed, widths=(3, 5, 3, 3)):
    """Ragged clients (5, 9 and 14 sequences) holding one view per width
    given; the views of one width share one padded stack."""
    clients = []
    for l, a in enumerate(ragged_clients(seed)):
        views = [make_sequences(seed + 7 * l + k, n=a.n_samples, p=p) for k, p in enumerate(widths)]
        for view in views:
            view.y[:] = a.y
        clients.append(SequenceClientData(views=views))
    return clients


class TestLockStep:
    """sfed_train runs its views' federations in lock-step: three views
    of width 3 share one padded stack, the width-5 view has its own."""

    def test_each_view_matches_its_federation_alone(self):
        # One `_sgd` per width a round, over all of that width's slots.
        assert check_sfed_views(mixed_width_clients(110), RAGGED_CFG, 4) == [9, 3]

    def test_non_finite_client_is_named(self, monkeypatch):
        # Client 2's width-5 view trains to NaN: its reply names it in
        # round 0, with no client stepping alone.
        clients = mixed_width_clients(120)
        clients[2].views[1].sequences[4][0, 0] = 777.0
        original = mvfed.sfed._grads

        def poisoned(arch, w, batch, *args):
            log_probs, grad = original(arch, w, batch, *args)
            grad[(batch[0] == 777.0).any(axis=(1, 2, 3))] = np.nan
            return log_probs, grad

        monkeypatch.setattr(mvfed.sfed, "_grads", poisoned)
        sgd = record_calls(monkeypatch, mvfed.sfed, "_sgd", 1)
        with pytest.raises(PartyFailure) as err:
            sfed_train(clients, RAGGED_CFG, embed_dim=4)
        assert (err.value.round_index, err.value.party_id) == (0, 2)
        assert "non-finite" in str(err.value.cause)
        # One `_sgd` per width, and none after the failure.
        assert sgd == [9, 3]


    def test_shuffle_draws_follow_each_key(self, monkeypatch):
        """Pins sfed's shuffle bits without BLAS: each batch that a
        lock-step `_Padded.gather` receives is the sorted cut of its
        slot's `make_rng(seed, KEY_SHUFFLE, client, view, round)`
        permutations, one per epoch.  Only integers are compared, so this
        holds on any CPU."""
        clients = mixed_width_clients(130, widths=(3, 5, 3))
        calls = {}
        original = mvfed.sfed._Padded.gather

        def recording(self, live, rows, *args):
            calls.setdefault(id(self), (self, []))[1].append((live.tolist(), rows.copy()))
            return original(self, live, rows, *args)

        monkeypatch.setattr(mvfed.sfed._Padded, "gather", recording)
        cfg = RAGGED_CFG
        sfed_train(clients, cfg, embed_dim=4)
        # One stack per width, in the order of its first view, its slots
        # view-major.
        stacks = [[(v, l) for v in views for l in range(len(clients))] for views in ([0, 2], [1])]
        assert len(calls) == len(stacks)
        for (padded, got), slots in zip(calls.values(), stacks):
            assert padded.counts.tolist() == [clients[l].n_samples for _, l in slots]
            expected = []
            for rnd in range(cfg.max_rounds):
                rngs = [make_rng(cfg.seed, KEY_SHUFFLE, l, v, rnd) for v, l in slots]
                for _ in range(cfg.local_epochs):
                    cuts = []
                    for rng, count in zip(rngs, padded.counts.tolist()):
                        order = rng.permutation(count)
                        cuts.append([
                            sorted(order[a : a + cfg.batch_size].tolist())
                            for a in range(0, count, cfg.batch_size)
                        ])
                    for j in range(max(map(len, cuts))):
                        live = [s for s, c in enumerate(cuts) if j < len(c)]
                        expected.append((live, [cuts[s][j] for s in live]))
            assert len(got) == len(expected)
            for (live, rows), (want_live, batches) in zip(got, expected):
                assert live == want_live
                for row, batch in zip(rows.tolist(), batches):
                    # The batch, then padding (row n) to the stack's width.
                    assert row == batch + [padded.n] * (len(row) - len(batch))


class TestStreams:
    def test_make_rng_only_for_the_inits(self, monkeypatch):
        clients = two_view_clients(45)
        calls = []
        original = mvfed.sfed.make_rng

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(mvfed.sfed, "make_rng", counting)
        sfed_train(clients, RAGGED_CFG, embed_dim=4)
        assert calls == [(RAGGED_CFG.seed, KEY_ENCODER, 0), (RAGGED_CFG.seed, KEY_ENCODER, 1)]

    @pytest.mark.parametrize("n_clients, rounds", [(3, 4), (1, 3), (3, 0), (1, 0)])
    def test_table_states_equal_make_rng(self, n_clients, rounds):
        datasets = ragged_clients(46)[:n_clients]
        cfg = dataclasses.replace(RAGGED_CFG, max_rounds=rounds)
        server, clients = make_sequence_parties(datasets, 2, ARCH, cfg)
        assert [len(row) for row in clients[0].streams] == [n_clients] * rounds
        for l, c in enumerate(clients):
            assert c.streams is clients[0].streams
            assert c.scratch is clients[0].scratch
            # Read-only, as every client shares it: tuples of (state, inc) pairs.
            assert type(c.streams) is tuple and all(type(row) is tuple for row in c.streams)
            for rnd in range(rounds):
                want = make_rng(cfg.seed, KEY_SHUFFLE, l, 2, rnd).bit_generator.state
                assert pcg64_state(*c.streams[rnd][c.slot]) == want
        # No stream is derived for a round past the table.
        msg = server.broadcast(rounds)
        with pytest.raises(InvalidSpec, match=f"round {rounds}: past the {rounds} rounds"):
            SequenceClient.steps(clients, rounds, [msg] * n_clients)
