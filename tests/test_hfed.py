import dataclasses

import numpy as np
import pytest

import mvfed.hfed
import mvfed.mvl
from mvfed.errors import DimensionMismatch, InvalidSpec, MissingClient, NotSPD, PartyFailure
from mvfed.fedcore import (
    HORIZONTAL_KINDS,
    FedMessage,
    FramedByteTransport,
    InProcessTransport,
    MessageKind,
    PartyId,
    RoundLog,
    disallowed_kinds,
    run_rounds,
)
from mvfed.hfed import (
    HorizontalClient,
    aggregate_transforms,
    hfed_train,
    make_horizontal_parties,
)
from mvfed.mvl import (
    HyperParams,
    MultiViewDataset,
    argmax_decode,
    fit_view_transform,
    predict_mvl,
)
from suite_utils import ReferenceClient, alg3_local, blob_dataset, client_state, record_calls, stage
from test_contracts import check_hfed, width_groups

SERVER = PartyId.server()


def record_stacks(monkeypatch):
    """The slot count of every stack of local passes hfed runs, read
    from the engine's eta, which holds one weight per slot."""
    return record_calls(monkeypatch, mvfed.hfed, "_passes", 6)


def split_rows(data, m, seed=0):
    """Near-stratified split: deal a label-shuffled permutation round-robin."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(data.n_samples)
    return [data.subset(np.sort(order[i::m])) for i in range(m)]


def assert_client_is(client, reply, w, pseudo, consensus):
    """The client's reply carries w, and its state is pseudo and
    consensus, bit for bit."""
    got, got_consensus = client_state(client)
    for k in range(len(w)):
        assert reply.matrices[k].tobytes() == w[k].tobytes()
        assert got[k].tobytes() == pseudo[k].tobytes()
    assert got_consensus.tobytes() == consensus.tobytes()


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
            data, hp, server.w, *client_state(client), max_local=5
        )
        reply = client.step(0, server.broadcast(0))
        pseudo, consensus = client_state(client)
        for k in range(data.n_views):
            assert np.array_equal(reply.matrices[k], w_ref[k])
            assert np.array_equal(pseudo[k], pseudo_ref[k])
        assert np.array_equal(consensus, consensus_ref)

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
        reply = clients[0].step(0, FedMessage.transform_set(0, SERVER, [np.zeros((6, 2))]))
        assert np.allclose(client_state(clients[0])[1], labels, atol=1e-5)
        w_direct, _ = fit_view_transform(x, labels, beta=0.1, epsilon=1e-8)
        assert np.allclose(reply.matrices[0], w_direct, atol=1e-3)

    def test_shape_drift_rejected(self):
        data = blob_dataset(7)
        hp = HyperParams.uniform(2)
        _, clients = make_horizontal_parties([data], hp, seed=1)
        bad = FedMessage.transform_set(0, SERVER, [np.zeros((9, 2)), np.zeros((4, 2))])
        with pytest.raises(PartyFailure) as err:
            clients[0].step(0, bad)
        assert (err.value.round_index, err.value.party_id) == (0, 0)
        assert isinstance(err.value.cause, DimensionMismatch)


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
        pseudo, consensus = client_state(clients[0])
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

    def test_logged_bytes_equal_over_both_transports(self):
        parts = split_rows(blob_dataset(20, n=48), 3, seed=3)
        hp = HyperParams.uniform(2)
        framed = FramedByteTransport(capture=True)
        a = hfed_train(parts, hp, seed=21, rounds=2, max_local=3)
        b = hfed_train(parts, hp, seed=21, rounds=2, max_local=3, transport=framed)
        assert a.log.total_bytes() == b.log.total_bytes() == sum(map(len, framed.captured))

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

    def test_client_with_fewer_rows_than_classes_rejected(self):
        data = blob_dataset(24, n_classes=3)
        tiny = data.subset(np.arange(2))
        log = RoundLog()
        with pytest.raises(InvalidSpec, match="client 1 has 2 rows, fewer than its 3 classes"):
            hfed_train([data, tiny], HyperParams.uniform(2), seed=1, log=log)
        assert log.n_rounds == 0

    @pytest.mark.parametrize("max_local", [2.5, -1, np.float64(3.0)])
    def test_max_local_must_be_a_non_negative_integer(self, max_local):
        # 2.5 used to fail in round 0 as a PartyFailure wrapping a
        # TypeError, and -1 ran no local pass without complaint.
        log = RoundLog()
        with pytest.raises(InvalidSpec, match="max_local must be an integer >= 0"):
            hfed_train(split_rows(blob_dataset(24), 2), HyperParams.uniform(2), seed=1,
                       max_local=max_local, log=log)
        assert log.n_rounds == 0

    @pytest.mark.parametrize("rounds", [2.5, -1])
    def test_round_count_must_be_a_non_negative_integer(self, rounds):
        # -1 used to run no round without complaint; 0 rounds return the
        # server's start.
        parts, hp = split_rows(blob_dataset(24), 2), HyperParams.uniform(2)
        with pytest.raises(InvalidSpec, match="rounds must be an integer >= 0"):
            hfed_train(parts, hp, seed=1, rounds=rounds)
        assert hfed_train(parts, hp, seed=1, rounds=0).log.n_rounds == 0

    def test_zero_epsilon_rejected_before_any_round(self):
        data = blob_dataset(24)
        log = RoundLog()
        with pytest.raises(InvalidSpec, match="epsilon"):
            zero = dataclasses.replace(HyperParams.uniform(2), epsilon=0.0)
            hfed_train(split_rows(data, 2), zero, seed=1, log=log)
        assert log.n_rounds == 0


def rows_of(sizes, seed, dims):
    """Consecutive row blocks of the given sizes from one blob dataset."""
    data = blob_dataset(seed, n=sum(sizes), dims=dims)
    bounds = np.cumsum([0, *sizes])
    return [data.subset(np.arange(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]


class TestCohorts:
    def test_matches_per_client_reference(self):
        # 19 clients of 6, 7, 9 and 11 rows; a view of width 8 takes the
        # dual form on the 6- and 7-row clients, which stack by row count,
        # while the 9- and 11-row clients share one block of 7.
        shards = rows_of([6, 7, 9] * 6 + [11], seed=40, dims=(8, 3))
        hp = dataclasses.replace(HyperParams.uniform(2), tol=1e-3, max_inner=6)
        assert check_hfed(shards, hp, 41, 8, 3) == [6, 6, 7] * 3

    @pytest.mark.parametrize("dims, groups", [
        ((6, 6, 6), [3]), ((6, 6, 4), [2, 1]), ((6, 12, 6), [2, 1]),
    ])
    def test_width_groups_match_solo_members(self, dims, groups):
        # Views of one width are fitted in one kernel call for every
        # member; the 12-wide view is wider than the 8-row clients (dual
        # form) and is fitted alone.
        shards = rows_of([8] * 5, seed=49, dims=dims)
        hp = HyperParams(
            beta=(2.0, 0.5, 1.0), zeta=(1.0, 4.0, 0.5), eta=2.0, tol=1e-3, max_inner=6
        )
        assert width_groups(shards[0].views, 8) == groups
        check_hfed(shards, hp, 50, 6, 1)

    @pytest.mark.parametrize("dims, stacks", [((4, 3), [6]), ((8, 3), [3, 2, 1])])
    def test_cohorts_group_by_width_pattern(self, dims, stacks):
        # Every client whose views are all no wider than its rows is in one
        # stack, whatever its row count; with a view of width 8 the 6- and
        # 7-row clients take the dual form and stack by row count.
        shards = rows_of([6, 7, 6, 9, 7, 6], seed=42, dims=dims)
        hp = dataclasses.replace(HyperParams.uniform(2), tol=1e-9)
        assert check_hfed(shards, hp, 1, 3, 1) == stacks

    @pytest.mark.parametrize("dims, n_classes", [((6, 3), 2), ((17, 4), 2), ((6, 3, 8), 3)])
    def test_ragged_clients_match_reference(self, dims, n_classes):
        # Clients of 2-40 rows: those with a view wider than their rows
        # stack by row count (dual form), all others in one ragged block
        # whose products and sums over rows must run per row count
        # (13 and 17 rows put n c on both sides of a multiple of 8).
        sizes = [13, 2, 17, 40, 13, 29, 5, 17, 36, 3, 23, 8, 18, 13, 2]
        sizes = [max(n, n_classes) for n in sizes]
        pool = blob_dataset(55, n=sum(sizes), dims=dims, n_classes=n_classes)
        bounds = np.cumsum([0, *sizes])
        shards = [pool.subset(np.arange(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]
        hp = dataclasses.replace(HyperParams.uniform(len(dims)), tol=1e-4, max_inner=6)
        primal = [n for n in sizes if n >= max(dims)]
        assert len(set(primal)) > 1 and len(primal) < len(sizes)
        passes = check_hfed(shards, hp, 56, 5, 3)
        assert max(passes) == len(primal) and sum(passes) == 3 * len(sizes)

    def test_part_of_a_block_is_rejected(self, monkeypatch):
        # A step covers whole blocks.  The 9-wide view puts the 8-row
        # clients in a block of their own (dual form); a step given part
        # of the other block raises InvalidSpec, alone or beside a whole
        # block, before any block's passes run, and no client's state
        # changes.
        assert [f.name for f in dataclasses.fields(HorizontalClient)] == ["party", "rows", "slot"]
        shards = rows_of([8, 11, 9, 8], seed=57, dims=(4, 9))
        hp = dataclasses.replace(HyperParams.uniform(2), tol=1e-4, max_inner=6)
        server, clients = make_horizontal_parties(shards, hp, seed=58, max_local=3)
        assert clients[0].rows is clients[3].rows is not clients[1].rows is clients[2].rows
        stage(clients, 0, [server.broadcast(0)] * len(clients))
        sent = server.broadcast(1)
        block = clients[1].rows
        taken = [*block.pseudo, block.consensus]

        def state():
            return [m.tobytes() for pseudo, z in map(client_state, clients) for m in (*pseudo, z)]

        before = state()
        passes = record_calls(monkeypatch, mvfed.hfed, "_passes", 6)
        for some in ([clients[2]], [clients[0], clients[3], clients[1]]):
            with pytest.raises(InvalidSpec, match="covers 1 of its block's 2 clients"):
                stage(some, 1, [sent] * len(some))
            assert state() == before
        with pytest.raises(InvalidSpec, match="covers 1 of its block's 2 clients"):
            clients[1].step(1, sent)
        assert state() == before
        assert passes == []
        assert all(a is b for a, b in zip(taken, [*block.pseudo, block.consensus]))

    def test_back_to_back_federations_are_equal(self):
        # Blocks keep their state per federation: a federation run after
        # another, in one process, trains and logs exactly as the first.
        sizes = [8, 11, 9, 3, 13, 5]
        shards = rows_of(sizes, seed=61, dims=(4, 6))
        others = rows_of(sizes[::-1], seed=62, dims=(4, 6))
        hp = dataclasses.replace(HyperParams.uniform(2), tol=1e-4, max_inner=6)
        first = hfed_train(shards, hp, seed=63, rounds=3, max_local=4)
        hfed_train(others, hp, seed=64, rounds=3, max_local=4)
        again = hfed_train(shards, hp, seed=63, rounds=3, max_local=4)
        for a, b in zip(first.transforms, again.transforms):
            assert a.tobytes() == b.tobytes()
        assert [r.messages for r in first.log.records] == [
            r.messages for r in again.log.records
        ]

    def test_member_with_other_broadcast_stays_in_the_stack(self, monkeypatch):
        shards = rows_of([8, 11, 9], seed=43, dims=(4, 3))
        hp = dataclasses.replace(HyperParams.uniform(2), tol=1e-9)
        server, clients = make_horizontal_parties(shards, hp, seed=44, max_local=4)
        sent = server.broadcast(0)
        other = FedMessage.transform_set(0, SERVER, [m + 0.5 for m in server.w])
        messages = [sent, other, sent]
        expected = [
            alg3_local(d, hp, msg.matrices, *client_state(c), 4)
            for c, d, msg in zip(clients, shards, messages)
        ]
        passes = record_stacks(monkeypatch)
        replies = stage(clients, 0, messages)
        assert passes == [3]
        for c, reply, (w, pseudo, consensus) in zip(clients, replies, expected):
            assert_client_is(c, reply, w, pseudo, consensus)

    def test_framed_transport_stages_and_matches_in_process(self, monkeypatch):
        # Over framed bytes every client decodes its own broadcast; the
        # clients still step as one stack, and every reply equals the
        # client's solo run.
        shards = rows_of([8, 9, 8, 9, 8, 8, 9], seed=51, dims=(4, 8))
        hp = dataclasses.replace(HyperParams.uniform(2), tol=1e-3, max_inner=6)
        in_process = hfed_train(shards, hp, seed=52, rounds=3, max_local=4)
        server, clients = make_horizontal_parties(shards, hp, seed=52, max_local=4)
        reference = [
            ReferenceClient(c.party, d, hp, 4, *client_state(c))
            for c, d in zip(clients, shards)
        ]
        ref_log = run_rounds(server, reference, FramedByteTransport(), max_rounds=3)
        passes = record_stacks(monkeypatch)
        framed = hfed_train(
            shards, hp, seed=52, rounds=3, max_local=4, transport=FramedByteTransport()
        )
        assert passes == [7] * 3
        for a, b, ref in zip(in_process.transforms, framed.transforms, server.w):
            assert a.tobytes() == b.tobytes() == ref.tobytes()
        assert [r.messages for r in framed.log.records] == [
            r.messages for r in in_process.log.records
        ] == [r.messages for r in ref_log.records]

    def test_staged_step_checks_broadcast_shapes(self):
        # With no local passes the stack would return the broadcast as it
        # came; the stack must still check its shapes.
        shards = rows_of([8, 8], seed=53, dims=(4, 3))
        _, clients = make_horizontal_parties(
            shards, HyperParams.uniform(2), seed=54, max_local=0
        )
        bad = FedMessage.transform_set(0, SERVER, [np.zeros((4, 1)), np.zeros((3, 1))])
        for step in (lambda: stage(clients, 0, [bad, bad]), lambda: clients[0].step(0, bad)):
            with pytest.raises(PartyFailure) as err:
                step()
            assert (err.value.round_index, err.value.party_id) == (0, 0)
            assert isinstance(err.value.cause, DimensionMismatch)

    def test_raising_steps_commits_nothing(self, monkeypatch):
        # `steps` checks every broadcast before it computes and commits
        # the blocks' state only once every reply is built: when one
        # client's broadcast has the wrong shapes, or its result is not
        # finite, that client is named and no client's state changes.  The 9-wide view puts the
        # 8-row clients in a block of their own (dual form), stepped
        # before the block of the others, whose result is poisoned.
        shards = rows_of([8, 11, 9, 8], seed=65, dims=(4, 9))
        hp = dataclasses.replace(HyperParams.uniform(2), tol=1e-4, max_inner=6)
        server, clients = make_horizontal_parties(shards, hp, seed=66, max_local=3)
        assert clients[0].rows is clients[3].rows is not clients[1].rows is clients[2].rows
        stage(clients, 0, [server.broadcast(0)] * len(clients))
        sent = server.broadcast(1)
        bad = FedMessage.transform_set(1, SERVER, [np.zeros((4, 2)), np.zeros((4, 2))])

        def state():
            return [m.tobytes() for pseudo, z in map(client_state, clients) for m in (*pseudo, z)]

        before = state()
        with pytest.raises(PartyFailure) as err:
            stage(clients, 1, [sent, sent, bad, sent])
        assert (err.value.round_index, err.value.party_id) == (1, 2)
        assert isinstance(err.value.cause, DimensionMismatch)
        assert state() == before

        original = mvfed.hfed._passes

        def poisoned(views, labels, *args, **kwargs):
            w, pseudo, consensus, reports = original(views, labels, *args, **kwargs)
            if labels is clients[2].rows.labels:
                w[0][clients[2].slot, 0, 0] = np.nan
            return w, pseudo, consensus, reports

        monkeypatch.setattr(mvfed.hfed, "_passes", poisoned)
        with pytest.raises(PartyFailure) as err:
            stage(clients, 1, [sent] * len(clients))
        assert (err.value.round_index, err.value.party_id) == (1, 2)
        assert type(err.value.cause) is ValueError and "non-finite" in str(err.value.cause)
        assert state() == before
        monkeypatch.undo()

        class Garbling(InProcessTransport):
            """Delivers the wrong-shape broadcast to client 2."""

            def _push(self, frm, to, msg):
                super()._push(frm, to, bad if to == PartyId.client(2) else msg)

        server, clients = make_horizontal_parties(shards, hp, seed=66, max_local=3)
        run_rounds(server, clients, None, max_rounds=1)
        with pytest.raises(PartyFailure) as err:
            run_rounds(server, clients, Garbling(), max_rounds=2)
        assert (err.value.round_index, err.value.party_id) == (0, 2)
        assert isinstance(err.value.cause, DimensionMismatch)

    def test_failing_member_is_named(self, monkeypatch):
        shards = rows_of([8, 8, 8, 8], seed=45, dims=(4, 3))
        shards[2].views[0][0, 0] = 777.0
        original = mvfed.mvl._fit_stats

        def failing(x, *args, **kwargs):
            if any((m == 777.0).any() for m in x):
                raise NotSPD("injected")
            return original(x, *args, **kwargs)

        monkeypatch.setattr(mvfed.mvl, "_fit_stats", failing)
        passes = record_stacks(monkeypatch)
        # A failure of the stacked passes is no one client's: it ends the
        # run as it is, after the one stack of all four clients.
        with pytest.raises(NotSPD, match="injected"):
            hfed_train(shards, HyperParams.uniform(2), seed=46, rounds=2, max_local=3)
        assert passes == [4]


class TestPredict:
    def test_zero_row_client(self):
        # A client with no held-out rows predicts locally to an empty block.
        rng = np.random.default_rng(29)
        w = rng.standard_normal((4, 2))
        out = predict_mvl([np.zeros((0, 4))], [w], [2.0])
        assert out.shape == (0, 2)
