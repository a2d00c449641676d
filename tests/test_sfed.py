import math

import numpy as np
import pytest

from mvfed.errors import (
    DimensionMismatch,
    EmptyBatch,
    EmptyDataset,
    EmptySequence,
    InvalidSpec,
    MissingClient,
)
from mvfed.fedcore import (
    SEQUENTIAL_KINDS,
    FramedByteTransport,
    InProcessTransport,
    MessageKind,
    RoundLog,
    decode_message,
    disallowed_kinds,
)
from mvfed.numerics import KEY_ENCODER, KEY_SHUFFLE, make_rng
from mvfed.sfed import (
    EncoderArch,
    SequenceClientData,
    SequenceDataset,
    SfedResult,
    TrainerConfig,
    dataset_loss,
    encoder_forward,
    extract_features,
    fedavg_aggregate,
    local_training,
    loss_and_grad,
    sfed_train,
    train_view_encoder,
)

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


class TestForward:
    def test_zero_weights(self):
        seq = np.random.default_rng(5).standard_normal((6, 3))
        emb, scores = encoder_forward(ARCH, np.zeros(ARCH.n_params), seq)
        assert np.array_equal(emb, np.zeros(4))
        assert np.array_equal(scores, np.zeros(2))
        biased = ARCH.pack(
            np.zeros((3, 4)), np.zeros(4), np.zeros((4, 2)), np.array([1.0, 2.0])
        )
        _, scores = encoder_forward(ARCH, biased, seq)
        assert np.array_equal(scores, np.array([1.0, 2.0]))

    def test_single_step_pooling(self):
        w = random_params(ARCH, 6)
        step, step_bias, head, head_bias = ARCH.unpack(w)
        seq = np.random.default_rng(7).standard_normal((1, 3))
        emb, scores = encoder_forward(ARCH, w, seq)
        expected = np.tanh(seq[0] @ step + step_bias)
        assert np.allclose(emb, expected, atol=1e-15)
        assert np.allclose(scores, expected @ head + head_bias, atol=1e-15)

    def test_time_permutation_invariance(self):
        w = random_params(ARCH, 8)
        rng = np.random.default_rng(9)
        seq = rng.standard_normal((7, 3))
        emb, _ = encoder_forward(ARCH, w, seq)
        emb_p, _ = encoder_forward(ARCH, w, seq[rng.permutation(7)])
        assert np.allclose(emb, emb_p, atol=1e-12)

    def test_input_validation(self):
        w = np.zeros(ARCH.n_params)
        with pytest.raises(EmptySequence):
            encoder_forward(ARCH, w, np.zeros((0, 3)))
        with pytest.raises(DimensionMismatch):
            encoder_forward(ARCH, w, np.zeros((4, 5)))


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
        assert np.array_equal(got, w - 0.3 * grad)

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
        assert np.array_equal(got, expected)

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
        assert np.array_equal(solo, pair)

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
        assert np.array_equal(alone, result.params[1])

    def test_deterministic_across_transports(self):
        clients = two_view_clients(30, m=2)
        cfg = TrainerConfig(batch_size=8, max_rounds=2, seed=19)
        a = sfed_train(clients, cfg, embed_dim=4)
        b = sfed_train(clients, cfg, embed_dim=4, transport=FramedByteTransport())
        for wa, wb in zip(a.params, b.params):
            assert np.array_equal(wa, wb)

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
            emb, _ = encoder_forward(ARCH, w, seq)
            assert np.allclose(out[i], emb, atol=1e-12)

    def test_empty_dataset_empty_matrix(self):
        empty = SequenceDataset([], np.array([], dtype=np.int64), 2)
        out = extract_features(ARCH, np.zeros(ARCH.n_params), empty)
        assert out.shape == (0, 4)
