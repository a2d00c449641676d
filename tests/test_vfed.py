import copy
import dataclasses

import numpy as np
import pytest

from mvfed.errors import DimensionMismatch, InvalidSpec
from mvfed.fedcore import (
    VERTICAL_KINDS,
    FedMessage,
    FramedByteTransport,
    InProcessTransport,
    MessageKind,
    PartyId,
    RoundLog,
    disallowed_kinds,
)
from mvfed.mvl import (
    HyperParams,
    MvlState,
    init_state,
    objective,
    predict_mvl,
    train_mvl,
    update_consensus,
    update_pseudo_labels,
)
from mvfed.mvl import test_consensus as consensus_mean
from mvfed.vfed import (
    VerticalServer,
    VfedResult,
    _relative_drift,
    make_vertical_parties,
    vfed_predict,
    vfed_train,
)
from suite_utils import blob_dataset, random_instance

SERVER = PartyId.server()


def pinned(hp, **overrides):
    """Copy of hp with a tolerance too small to ever trigger early stop."""
    return dataclasses.replace(hp, tol=1e-300, **overrides)


class TestClientStep:
    def test_zeta_zero_ignores_consensus(self):
        data, hp = random_instance(11)
        hp = dataclasses.replace(
            hp, zeta=tuple(0.0 for _ in hp.zeta), eta=max(hp.eta, 1.0)
        )
        _, clients = make_vertical_parties(data, hp, seed=3)
        client = clients[0]
        twin = copy.deepcopy(client)
        rng = np.random.default_rng(0)
        shape = client.pseudo.shape
        za = FedMessage.consensus(0, SERVER, rng.standard_normal(shape))
        zb = FedMessage.consensus(0, SERVER, rng.standard_normal(shape))
        out_a = client.step(0, za)
        out_b = twin.step(0, zb)
        assert np.array_equal(out_a.matrix, client.x @ client.w)
        assert np.array_equal(out_a.matrix, out_b.matrix)

    def test_statelessness(self):
        data, hp = random_instance(12)
        _, clients = make_vertical_parties(data, hp, seed=5)
        client = clients[-1]
        twin = copy.deepcopy(client)
        msg = FedMessage.consensus(
            0, SERVER, np.random.default_rng(1).standard_normal(client.pseudo.shape)
        )
        out = client.step(0, msg)
        out_twin = twin.step(0, msg)
        assert out == out_twin
        assert np.array_equal(client.w, twin.w)

    def test_one_step_matches_centralized_stage(self):
        from mvfed.mvl import _fit_stats

        data, hp = random_instance(13)
        state = init_state(data.dims, data.n_samples, data.n_classes, seed=7)
        _, clients = make_vertical_parties(data, hp, seed=7)
        for k, client in enumerate(clients):
            w, _, _, _ = _fit_stats(
                data.views[k], state.Zk[k], hp.beta[k], hp.epsilon,
                hp.max_inner, hp.tol, w_init=state.W[k],
            )
            zk = update_pseudo_labels(data.views[k] @ w, state.Z, hp.zeta[k])
            reply = client.step(0, FedMessage.consensus(0, SERVER, state.Z))
            assert np.array_equal(client.w, w)
            assert np.array_equal(reply.matrix, zk)

    def test_consensus_shape_drift_rejected(self):
        data, hp = random_instance(14)
        _, clients = make_vertical_parties(data, hp, seed=2)
        bad = FedMessage.consensus(
            0, SERVER, np.zeros((data.n_samples + 1, data.n_classes))
        )
        with pytest.raises(DimensionMismatch):
            clients[0].step(0, bad)


class TestServerStep:
    def make_server(self, labels, eta, z0):
        return VerticalServer(labels=labels, eta=eta, tol=1e-300, z=z0)

    def test_hand_value(self):
        server = self.make_server(np.array([[0.0]]), eta=1.0, z0=np.zeros((1, 1)))
        msg = FedMessage.pseudo_label(0, PartyId.client(0), 1.0, np.array([[1.0]]))
        server.aggregate(0, [msg])
        assert np.array_equal(server.z, np.array([[0.5]]))

    def test_fixed_point_at_labels(self):
        rng = np.random.default_rng(4)
        y = np.zeros((6, 3))
        y[np.arange(6), rng.integers(0, 3, 6)] = 1.0
        server = self.make_server(y, eta=2.5, z0=np.zeros((6, 3)))
        msgs = [
            FedMessage.pseudo_label(0, PartyId.client(k), 1.5, y) for k in range(2)
        ]
        server.aggregate(0, msgs)
        assert np.allclose(server.z, y, atol=1e-15)

    def test_matches_consensus_update_bitwise(self):
        rng = np.random.default_rng(5)
        y = np.zeros((8, 2))
        y[np.arange(8), rng.integers(0, 2, 8)] = 1.0
        zks = [rng.standard_normal((8, 2)) for _ in range(3)]
        zetas = [0.5, 2.0, 7.5]
        server = self.make_server(y, eta=3.0, z0=np.zeros((8, 2)))
        msgs = [
            FedMessage.pseudo_label(0, PartyId.client(k), zetas[k], zks[k])
            for k in range(3)
        ]
        server.aggregate(0, msgs)
        assert np.array_equal(server.z, update_consensus(zks, y, zetas, 3.0))

    @pytest.mark.parametrize("old, drift", [
        (np.full((1, 4), 0.25), 0.25),  # ||old|| = 0.5 scales the distance up
        (np.zeros((1, 4)), 0.125),  # a zero consensus gives the plain distance
    ], ids=["norm-half", "zero"])
    def test_drift_is_relative_to_the_old_consensus(self, old, drift):
        assert _relative_drift(old + 0.0625, old) == drift


class TestTrainEquivalence:
    def test_matches_centralized_bitwise(self):
        for seed in range(5):
            data, hp = random_instance(100 + seed, max_samples=60)
            hp = pinned(hp, max_outer=8)
            state, _ = train_mvl(data, hp, seed=seed)
            result = vfed_train(data, hp, seed=seed)
            assert result.log.n_rounds == hp.max_outer
            for k in range(data.n_views):
                assert np.array_equal(result.transforms[k], state.W[k])
                assert np.array_equal(result.pseudo_labels[k], state.Zk[k])
            assert np.array_equal(result.consensus, state.Z)

    def test_trajectory_prefixes_match(self):
        data, hp = random_instance(123, max_samples=40)
        for rounds in range(1, 5):
            capped = pinned(hp, max_outer=rounds)
            state, _ = train_mvl(data, capped, seed=9)
            result = vfed_train(data, capped, seed=9)
            assert np.array_equal(result.consensus, state.Z)
            for k in range(data.n_views):
                assert np.array_equal(result.transforms[k], state.W[k])

    def test_framed_transport_within_tolerance(self):
        data, hp = random_instance(77, max_samples=50)
        hp = pinned(hp, max_outer=6)
        state, _ = train_mvl(data, hp, seed=21)
        result = vfed_train(data, hp, seed=21, transport=FramedByteTransport())
        for k in range(data.n_views):
            assert np.max(np.abs(result.transforms[k] - state.W[k])) <= 1e-9
        assert np.max(np.abs(result.consensus - state.Z)) <= 1e-9

    def test_single_view_structure(self):
        data = blob_dataset(31, dims=(4,))
        hp = pinned(HyperParams.uniform(1), max_outer=6)
        state, _ = train_mvl(data, hp, seed=2)
        result = vfed_train(data, hp, seed=2)
        assert np.array_equal(result.transforms[0], state.W[0])
        assert np.array_equal(result.consensus, state.Z)
        assert result.log.message_kinds() == {
            MessageKind.CONSENSUS, MessageKind.PSEUDO_LABEL,
        }

    def test_early_stop_on_drift(self):
        data = blob_dataset(32)
        hp = dataclasses.replace(
            HyperParams.uniform(2), tol=1e-3, max_outer=100
        )
        result = vfed_train(data, hp, seed=3)
        assert result.log.n_rounds < hp.max_outer


class TestPrivacy:
    def test_no_view_bytes_on_the_wire(self):
        data, hp = random_instance(55, max_samples=30)
        hp = pinned(hp, max_outer=4)
        transport = FramedByteTransport(capture=True)
        log = RoundLog()
        vfed_train(data, hp, seed=8, transport=transport, log=log)
        assert disallowed_kinds(log, VERTICAL_KINDS) == set()
        raw_views = [np.ascontiguousarray(v).astype("<f8").tobytes() for v in data.views]
        assert all(len(frame) > 0 for frame in transport.captured)
        for frame in transport.captured:
            for raw in raw_views:
                assert frame.find(raw) == -1

    def test_full_information_objective_monotone(self):
        data, hp = random_instance(66, max_samples=50)
        hp = pinned(hp, max_outer=10)
        server, clients = make_vertical_parties(data, hp, seed=4)
        values = [
            objective(
                data,
                MvlState(
                    W=[c.w for c in clients],
                    Zk=[c.pseudo for c in clients],
                    Z=server.z,
                ),
                hp,
            )
        ]
        for rnd in range(10):
            broadcast = server.broadcast(rnd)
            replies = [c.step(rnd, broadcast) for c in clients]
            server.aggregate(rnd, replies)
            values.append(
                objective(
                    data,
                    MvlState(
                        W=[c.w for c in clients],
                        Zk=[c.pseudo for c in clients],
                        Z=server.z,
                    ),
                    hp,
                )
            )
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-10)


class TestPredict:
    def trained(self, seed=91):
        data = blob_dataset(seed, n=40, dims=(5, 4, 3))
        hp = pinned(HyperParams.uniform(3), max_outer=6)
        result = vfed_train(data, hp, seed=seed)
        test_data = blob_dataset(seed + 1, n=24, dims=(5, 4, 3))
        return result, test_data, hp

    def test_matches_centralized_bitwise(self):
        # Equal caps: vfed_predict stops on zero consensus drift and
        # predict_mvl on zero objective change, which can fall in
        # different rounds, so only tol=0.0 (met by neither) pins both
        # loops to max rounds.
        for seed in range(80, 120):
            result, test_data, hp = self.trained(seed)
            central = predict_mvl(
                test_data.views, result.transforms, hp.zeta,
                tol=0.0, max_outer=7,
            )
            federated = vfed_predict(
                test_data.views, result.transforms, hp.zeta,
                tol=0.0, max_rounds=7,
            )
            assert np.array_equal(federated, central), seed

    def test_framed_transport_within_tolerance(self):
        result, test_data, hp = self.trained(101)
        central = predict_mvl(
            test_data.views, result.transforms, hp.zeta,
            tol=1e-300, max_outer=5,
        )
        federated = vfed_predict(
            test_data.views, result.transforms, hp.zeta,
            tol=1e-300, max_rounds=5, transport=FramedByteTransport(),
        )
        assert np.max(np.abs(federated - central)) <= 1e-9

    def test_single_view_returns_scores(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 4))
        w = rng.standard_normal((4, 2))
        one = vfed_predict([x], [w], [1.0], tol=1e-300, max_rounds=1)
        assert np.array_equal(one, x @ w)
        several = vfed_predict([x], [w], [1.0], tol=1e-300, max_rounds=5)
        assert np.allclose(several, x @ w, atol=1e-12)

    def test_first_round_is_weighted_mean(self):
        rng = np.random.default_rng(7)
        xs = [rng.standard_normal((8, 3)) for _ in range(2)]
        ws = [rng.standard_normal((3, 2)) for _ in range(2)]
        got = vfed_predict(xs, ws, [1.0, 1.0], tol=1e-300, max_rounds=1)
        mean = (xs[0] @ ws[0] + xs[1] @ ws[1]) / 2.0
        assert np.allclose(got, mean, atol=1e-14)

    def test_audit_kinds(self):
        result, test_data, hp = self.trained(111)
        log = RoundLog()
        vfed_predict(
            test_data.views, result.transforms, hp.zeta,
            tol=1e-300, max_rounds=3, log=log,
        )
        assert log.message_kinds() == {
            MessageKind.TEST_CONSENSUS, MessageKind.TEST_PSEUDO_LABEL,
        }
        assert disallowed_kinds(log, VERTICAL_KINDS) == set()

    def test_rejects_zero_rounds_and_bad_shapes(self):
        x = np.zeros((4, 3))
        w = np.zeros((3, 2))
        with pytest.raises(InvalidSpec):
            vfed_predict([x], [w], [1.0], max_rounds=0)
        with pytest.raises(DimensionMismatch):
            vfed_predict([x], [w], [1.0, 2.0])
        with pytest.raises(InvalidSpec):
            vfed_predict([x], [w], [0.0], max_rounds=2)
        log = RoundLog()
        with pytest.raises(
            DimensionMismatch, match=r"view 1: X shape \(4, 3\) incompatible with W shape \(2, 2\)"
        ):
            vfed_predict([x, x], [w, np.zeros((2, 2))], [1.0, 1.0], log=log)
        assert log.n_rounds == 0

    # A fractional or bool cap used to raise a bare TypeError from the
    # round loop, or to run as an int.
    @pytest.mark.parametrize("value", [2.5, True, np.float64(2.0), "2"])
    def test_max_rounds_must_be_an_integer(self, value):
        x, w = np.zeros((4, 3)), np.zeros((3, 2))
        with pytest.raises(InvalidSpec, match="max_rounds must be an integer >= 1"):
            vfed_predict([x], [w], [1.0], max_rounds=value)


class TestValidation:
    def test_zero_epsilon_rejected_before_any_round(self):
        data, hp = random_instance(5, max_samples=30)
        log = RoundLog()
        with pytest.raises(InvalidSpec, match="epsilon"):
            vfed_train(data, pinned(hp, epsilon=0.0), seed=1, log=log)
        assert log.n_rounds == 0


class TestResultShape:
    def test_fields(self):
        data, hp = random_instance(31, max_samples=30)
        hp = pinned(hp, max_outer=3)
        result = vfed_train(data, hp, seed=10)
        assert isinstance(result, VfedResult)
        assert len(result.transforms) == data.n_views
        for k in range(data.n_views):
            assert result.transforms[k].shape == (data.dims[k], data.n_classes)
            assert result.pseudo_labels[k].shape == (data.n_samples, data.n_classes)
        assert result.consensus.shape == (data.n_samples, data.n_classes)
        assert result.log.n_rounds == 3
