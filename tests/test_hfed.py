import dataclasses

import numpy as np
import pytest

from mvfed.errors import DimensionMismatch, InvalidSpec, MissingClient
from mvfed.fedcore import (
    HORIZONTAL_KINDS,
    FedMessage,
    FramedByteTransport,
    MessageKind,
    PartyId,
    RoundLog,
    disallowed_kinds,
)
from mvfed.hfed import (
    aggregate_transforms,
    hfed_predict,
    hfed_train,
    make_horizontal_parties,
)
from mvfed.mvl import (
    HyperParams,
    MultiViewDataset,
    MvlState,
    argmax_decode,
    fit_view_transform,
    objective,
    predict_mvl,
    update_consensus,
    update_pseudo_labels,
)
from suite_utils import blob_dataset

SERVER = PartyId.server()


def alg3_local(data, hp, w, pseudo, consensus, max_local):
    """Reference local pass: pseudo-labels, consensus, then the refit."""
    from mvfed.mvl import _fit_stats

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
            w[k], _, _ = _fit_stats(
                data.views[k], pseudo[k], hp.beta[k], hp.epsilon,
                hp.max_inner, hp.tol, w_init=w[k],
            )
        v = value()
        if abs(v - prev) / max(1.0, abs(prev)) < hp.tol:
            break
        prev = v
    return w, pseudo, consensus


def split_rows(data, m, seed=0):
    """Near-stratified split: deal a label-shuffled permutation round-robin."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(data.n_samples)
    return [data.subset(np.sort(order[i::m])) for i in range(m)]


class TestClientStep:
    def test_local_cap_zero_returns_broadcast(self):
        data = blob_dataset(1)
        hp = HyperParams.uniform(2)
        server, clients = make_horizontal_parties([data], hp, seed=3, max_local=0)
        reply = clients[0].step(0, server.broadcast(0))
        for got, sent in zip(reply.matrices, server.w):
            assert np.array_equal(got, sent)

    def test_matches_reordered_reference(self):
        data = blob_dataset(2, n=40, dims=(5, 3))
        hp = dataclasses.replace(HyperParams.uniform(2), tol=1e-9, max_inner=6)
        server, clients = make_horizontal_parties([data], hp, seed=4, max_local=5)
        client = clients[0]
        w_ref, pseudo_ref, consensus_ref = alg3_local(
            data, hp, server.w, client.pseudo, client.consensus, max_local=5
        )
        client.step(0, server.broadcast(0))
        for k in range(data.n_views):
            assert np.array_equal(client.w[k], w_ref[k])
            assert np.array_equal(client.pseudo[k], pseudo_ref[k])
        assert np.array_equal(client.consensus, consensus_ref)

    def test_one_class_strong_coupling_limit(self):
        rng = np.random.default_rng(5)
        n = 30
        x = rng.standard_normal((n, 6))
        labels = np.zeros((n, 2))
        labels[:, 0] = 1.0
        data = MultiViewDataset(views=[x], labels=labels)
        hp = HyperParams(
            beta=(0.1,), zeta=(1e8,), eta=1e8, epsilon=1e-8,
            tol=1e-12, max_outer=100, max_inner=20,
        )
        _, clients = make_horizontal_parties([data], hp, seed=6, max_local=50)
        client = clients[0]
        client.set_transforms(
            [np.zeros((6, 2))]
        )
        client.optimize_local()
        assert np.allclose(client.consensus, labels, atol=1e-5)
        w_direct, _ = fit_view_transform(x, labels, beta=0.1, epsilon=1e-8)
        assert np.allclose(client.w[0], w_direct, atol=1e-3)

    def test_shape_drift_rejected(self):
        data = blob_dataset(7)
        hp = HyperParams.uniform(2)
        _, clients = make_horizontal_parties([data], hp, seed=1)
        bad = FedMessage.transform_set(0, SERVER, [np.zeros((9, 2)), np.zeros((4, 2))])
        with pytest.raises(DimensionMismatch):
            clients[0].step(0, bad)


class TestAggregate:
    def test_hand_value(self):
        out = aggregate_transforms(
            [[np.array([[1.0]])], [np.array([[5.0]])]], counts=[3, 1]
        )
        assert np.array_equal(out[0], np.array([[2.0]]))

    def test_single_client_identity(self):
        rng = np.random.default_rng(8)
        ws = [rng.standard_normal((5, 3)), rng.standard_normal((4, 3))]
        out = aggregate_transforms([ws], counts=[17])
        for got, orig in zip(out, ws):
            assert np.array_equal(got, orig)

    def test_identical_clients_fixed_point(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal((6, 2))
        out = aggregate_transforms([[w], [w]], counts=[10, 10])
        assert np.array_equal(out[0], w)
        out5 = aggregate_transforms([[w]] * 5, counts=[3, 1, 4, 1, 5])
        assert np.allclose(out5[0], w, rtol=1e-15, atol=0.0)

    def test_weights_sum_to_one(self):
        counts = [7, 11, 13, 2]
        total = sum(counts)
        assert abs(sum(n / total for n in counts) - 1.0) <= 1e-12

    def test_output_in_client_envelope(self):
        rng = np.random.default_rng(10)
        sets = [[rng.standard_normal((4, 2))] for _ in range(3)]
        out = aggregate_transforms(sets, counts=[5, 2, 9])
        stack = np.stack([s[0] for s in sets])
        assert np.all(out[0] >= stack.min(axis=0) - 1e-15)
        assert np.all(out[0] <= stack.max(axis=0) + 1e-15)

    def test_validation(self):
        w = [np.zeros((3, 2))]
        with pytest.raises(MissingClient):
            aggregate_transforms([], counts=[])
        with pytest.raises(MissingClient):
            aggregate_transforms([w], counts=[1, 2])
        with pytest.raises(InvalidSpec):
            aggregate_transforms([w, w], counts=[1, 0])
        with pytest.raises(DimensionMismatch):
            aggregate_transforms([w, [np.zeros((4, 2))]], counts=[1, 1])


class TestTrain:
    def test_single_client_trajectory(self):
        data = blob_dataset(12, n=36, dims=(4, 3))
        hp = dataclasses.replace(HyperParams.uniform(2), tol=1e-9, max_inner=5)
        server, clients = make_horizontal_parties([data], hp, seed=13, max_local=4)
        w = [m.copy() for m in server.w]
        pseudo = [m.copy() for m in clients[0].pseudo]
        consensus = clients[0].consensus.copy()
        for _ in range(3):
            w, pseudo, consensus = alg3_local(data, hp, w, pseudo, consensus, 4)
        result = hfed_train([data], hp, seed=13, rounds=3, max_local=4)
        for k in range(data.n_views):
            assert np.array_equal(result.transforms[k], w[k])
        assert result.log.n_rounds == 3

    def test_trains_to_usable_accuracy(self):
        pool = blob_dataset(14, n=180, dims=(5, 4), separation=4.0)
        train = pool.subset(np.arange(120))
        held_out = pool.subset(np.arange(120, 180))
        parts = split_rows(train, 4, seed=0)
        hp = HyperParams.uniform(2)
        result = hfed_train(parts, hp, seed=15, rounds=6, max_local=10)
        scores = predict_mvl(held_out.views, result.transforms, hp.zeta)
        acc = float(np.mean(argmax_decode(scores) == held_out.class_indices()))
        assert acc >= 0.9

    def test_message_audit(self):
        data = blob_dataset(16, n=48)
        parts = split_rows(data, 3, seed=1)
        hp = HyperParams.uniform(2)
        transport = FramedByteTransport(capture=True)
        log = RoundLog()
        hfed_train(parts, hp, seed=17, rounds=2, max_local=3,
                   transport=transport, log=log)
        assert log.message_kinds() == {MessageKind.TRANSFORM_SET}
        assert disallowed_kinds(log, HORIZONTAL_KINDS) == set()
        raw = [
            np.ascontiguousarray(v).astype("<f8").tobytes()
            for part in parts for v in part.views
        ]
        for frame in transport.captured:
            for blob in raw:
                assert frame.find(blob) == -1

    def test_deterministic_across_runs(self):
        data = blob_dataset(18, n=40)
        parts = split_rows(data, 2, seed=2)
        hp = HyperParams.uniform(2)
        a = hfed_train(parts, hp, seed=19, rounds=3, max_local=3)
        b = hfed_train(parts, hp, seed=19, rounds=3, max_local=3)
        for wa, wb in zip(a.transforms, b.transforms):
            assert np.array_equal(wa, wb)

    def test_validation(self):
        data = blob_dataset(24)
        hp = HyperParams.uniform(2)
        with pytest.raises(InvalidSpec):
            hfed_train([], hp, seed=1)
        other = blob_dataset(25, dims=(6, 4))
        with pytest.raises(DimensionMismatch):
            hfed_train([data, other], hp, seed=1)
        with pytest.raises(InvalidSpec):
            make_horizontal_parties([data], [hp, hp], seed=1)


class TestPredict:
    def test_matches_centralized_per_client(self):
        data = blob_dataset(26, n=60, dims=(5, 4))
        parts = split_rows(data, 3, seed=5)
        hp = HyperParams.uniform(2)
        result = hfed_train(parts, hp, seed=27, rounds=3, max_local=5)
        test_sets = [
            blob_dataset(30 + i, n=10 + 4 * i, dims=(5, 4)).views
            for i in range(3)
        ]
        outs = hfed_predict(test_sets, result.transforms, hp.zeta, tol=1e-300,
                            max_rounds=6)
        for views, got in zip(test_sets, outs):
            ref = predict_mvl(views, result.transforms, hp.zeta, tol=1e-300,
                              max_outer=6)
            assert np.array_equal(got, ref)

    def test_single_view_is_plain_scores(self):
        rng = np.random.default_rng(28)
        x = rng.standard_normal((9, 4))
        w = rng.standard_normal((4, 3))
        outs = hfed_predict([[x]], [w], [1.0], tol=1e-300, max_rounds=1)
        assert np.array_equal(outs[0], x @ w)

    def test_zero_row_client(self):
        rng = np.random.default_rng(29)
        w = rng.standard_normal((4, 2))
        outs = hfed_predict([[np.zeros((0, 4))]], [w], [2.0])
        assert outs[0].shape == (0, 2)
