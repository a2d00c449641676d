import hashlib
import struct
import threading

import numpy as np
import pytest

from mvfed.errors import MalformedFrame, MissingClient, PartyFailure
from mvfed.fedcore import (
    FedMessage,
    FramedByteTransport,
    InProcessTransport,
    MessageKind,
    PartyId,
    RoundLog,
    decode_message,
    disallowed_kinds,
    encode_message,
    fedavg_aggregate,
    frame_size,
    run_rounds,
    seal_rows,
    stack_rows,
)
from mvfed.fedcore.messages import PAYLOADS

SERVER = PartyId.server()
C0 = PartyId.client(0)
C1 = PartyId.client(1)


# One small fixed message per kind and its frame, split by field:
# magic, version and kind | round | sender | payload length | payload.
GOLDEN = {
    MessageKind.CONSENSUS: (
        FedMessage.consensus(1, SERVER, np.array([[1.0, -2.0]])),
        b"FMV1\x01\x01" b"\x01\x00\x00\x00" b"\xff\xff\xff\xff"
        b" \x00\x00\x00\x00\x00\x00\x00"
        b"\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"
        b"\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\x00\xc0",
    ),
    MessageKind.PSEUDO_LABEL: (
        FedMessage.pseudo_label(2, C1, 0.5, np.array([[0.25], [4.0]])),
        b"FMV1\x01\x02" b"\x02\x00\x00\x00" b"\x01\x00\x00\x00"
        b"(\x00\x00\x00\x00\x00\x00\x00"
        b"\x00\x00\x00\x00\x00\x00\xe0?"
        b"\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
        b"\x00\x00\x00\x00\x00\x00\xd0?\x00\x00\x00\x00\x00\x00\x10@",
    ),
    MessageKind.TRANSFORM_SET: (
        FedMessage.transform_set(
            3, PartyId.client(2), [np.array([[1.0]]), np.array([[2.0, 3.0]])]
        ),
        b"FMV1\x01\x03" b"\x03\x00\x00\x00" b"\x02\x00\x00\x00"
        b"<\x00\x00\x00\x00\x00\x00\x00"
        b"\x02\x00\x00\x00"
        b"\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
        b"\x00\x00\x00\x00\x00\x00\xf0?"
        b"\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"
        b"\x00\x00\x00\x00\x00\x00\x00@\x00\x00\x00\x00\x00\x00\x08@",
    ),
    MessageKind.PARAM_VECTOR: (
        FedMessage.param_vector(4, PartyId.client(3), 7, np.array([1.5, -0.5])),
        b"FMV1\x01\x04" b"\x04\x00\x00\x00" b"\x03\x00\x00\x00"
        b"\x1c\x00\x00\x00\x00\x00\x00\x00"
        b"\x07\x00\x00\x00"
        b"\x02\x00\x00\x00\x00\x00\x00\x00"
        b"\x00\x00\x00\x00\x00\x00\xf8?\x00\x00\x00\x00\x00\x00\xe0\xbf",
    ),
    MessageKind.TEST_CONSENSUS: (
        FedMessage.test_consensus(5, SERVER, np.array([[0.0]])),
        b"FMV1\x01\x05" b"\x05\x00\x00\x00" b"\xff\xff\xff\xff"
        b"\x18\x00\x00\x00\x00\x00\x00\x00"
        b"\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
        b"\x00\x00\x00\x00\x00\x00\x00\x00",
    ),
    MessageKind.TEST_PSEUDO_LABEL: (
        FedMessage.test_pseudo_label(6, C0, 3.0, np.array([[1.0]])),
        b"FMV1\x01\x06" b"\x06\x00\x00\x00" b"\x00\x00\x00\x00"
        b" \x00\x00\x00\x00\x00\x00\x00"
        b"\x00\x00\x00\x00\x00\x00\x08@"
        b"\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
        b"\x00\x00\x00\x00\x00\x00\xf0?",
    ),
}


def with_payload_length(frame):
    """`frame` with the header's payload length rewritten to match the
    bytes after the header."""
    return frame[:14] + struct.pack("<Q", len(frame) - 22) + frame[22:]


def random_message(rng, kind):
    rows = int(rng.integers(1, 65))
    cols = int(rng.integers(1, 17))
    m = rng.standard_normal((rows, cols))
    sender = PartyId.client(int(rng.integers(0, 5)))
    rnd = int(rng.integers(0, 1000))
    if kind is MessageKind.CONSENSUS:
        return FedMessage.consensus(rnd, sender, m)
    if kind is MessageKind.TEST_CONSENSUS:
        return FedMessage.test_consensus(rnd, sender, m)
    if kind is MessageKind.PSEUDO_LABEL:
        return FedMessage.pseudo_label(rnd, sender, float(rng.uniform(0, 32)), m)
    if kind is MessageKind.TEST_PSEUDO_LABEL:
        return FedMessage.test_pseudo_label(rnd, sender, float(rng.uniform(0, 32)), m)
    if kind is MessageKind.TRANSFORM_SET:
        mats = [rng.standard_normal((int(rng.integers(1, 9)), cols)) for _ in range(int(rng.integers(1, 4)))]
        return FedMessage.transform_set(rnd, sender, mats)
    return FedMessage.param_vector(
        rnd, sender, int(rng.integers(0, 8)), rng.standard_normal(int(rng.integers(1, 200)))
    )


class TestMessages:
    def test_kind_payload_consistency(self):
        with pytest.raises(ValueError):
            FedMessage(round=0, sender=C0, kind=MessageKind.CONSENSUS)
        with pytest.raises(ValueError):
            FedMessage(
                round=0, sender=C0, kind=MessageKind.CONSENSUS,
                matrix=np.ones((1, 1)), zeta=1.0,
            )
        with pytest.raises(ValueError):
            FedMessage.pseudo_label(0, C0, float("nan"), np.ones((1, 1)))
        with pytest.raises(ValueError):
            FedMessage.consensus(0, C0, np.array([[np.inf]]))
        with pytest.raises(ValueError):
            FedMessage.transform_set(0, C0, [])
        with pytest.raises(ValueError):
            FedMessage.param_vector(0, C0, -1, np.ones(3))

    def test_payload_table_covers_every_kind(self):
        assert set(PAYLOADS) == set(MessageKind)

    def test_kind_outside_table_rejected(self):
        with pytest.raises(ValueError):
            FedMessage(round=0, sender=C0, kind=42)

    def test_int_kind_becomes_its_member(self):
        msg = FedMessage(round=0, sender=C0, kind=1, matrix=np.ones((1, 1)))
        assert msg.kind is MessageKind.CONSENSUS
        assert msg == FedMessage.consensus(0, C0, np.ones((1, 1)))
        with pytest.raises(ValueError, match="CONSENSUS requires matrix"):
            FedMessage(round=0, sender=C0, kind=1)
        with pytest.raises(ValueError, match="unknown message kind"):
            FedMessage(round=0, sender=C0, kind="1", matrix=np.ones((1, 1)))

    def test_equality_compares_every_payload_field(self):
        m = np.ones((1, 1))
        assert FedMessage.transform_set(0, C0, [m]) != FedMessage.transform_set(0, C0, [m, m])
        assert FedMessage.pseudo_label(0, C0, 1.0, m) != FedMessage.pseudo_label(0, C0, 2.0, m)
        assert FedMessage.param_vector(0, C0, 1, m[0]) != FedMessage.param_vector(0, C0, 2, m[0])
        assert FedMessage.consensus(0, C0, m) != FedMessage.test_consensus(0, C0, m)
        assert FedMessage.consensus(0, C0, m) != FedMessage.consensus(0, C0, 2 * m)

    def test_arrays_copied_at_construction(self):
        m = np.ones((2, 2))
        msg = FedMessage.consensus(0, C0, m)
        m[0, 0] = 99.0
        assert msg.matrix[0, 0] == 1.0
        # A read-only view of a writable array is copied too.
        m = np.ones((2, 2))
        view = m.view()
        view.setflags(write=False)
        msg = FedMessage.consensus(0, C0, view)
        m[0, 0] = 99.0
        assert msg.matrix[0, 0] == 1.0 and not np.shares_memory(msg.matrix, m)

    def test_message_from_sealed_row_shares_its_memory(self):
        stack = np.arange(24.0).reshape(4, 3, 2)
        rows = seal_rows(stack)
        assert len(rows) == 4
        msg = FedMessage.transform_set(0, C0, [rows[2], rows[0]])
        assert msg.matrices[0] is rows[2] and msg.matrices[1] is rows[0]
        assert np.shares_memory(msg.matrices[0], stack)
        vectors = seal_rows(np.ones((3, 5)))
        assert FedMessage.param_vector(0, C0, 1, vectors[1]).vector is vectors[1]
        # The ndim check still runs on a sealed row.
        with pytest.raises(ValueError, match="must be 1-D"):
            FedMessage.param_vector(0, C0, 1, rows[0])
        # Views of a sealed stack that are not C-ordered float64 rows are copied.
        for other in (rows[1].T, rows[1].view(np.int64)):
            got = FedMessage.consensus(0, C0, other).matrix
            assert not np.shares_memory(got, stack)
            assert got.flags.c_contiguous and got.dtype == np.float64

    def test_sealed_stack_cannot_be_written_through_any_row(self):
        stack = np.zeros((3, 2, 2))
        rows = seal_rows(stack)
        for row in rows:
            with pytest.raises(ValueError):
                row[0, 0] = 1.0
            with pytest.raises(ValueError):
                row.setflags(write=True)
            with pytest.raises(ValueError):
                row.T[0, 0] = 1.0
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0
        assert not stack.any()

    def test_non_finite_stack_is_not_sealed(self):
        stack = np.ones((3, 2, 2))
        stack[2, 1, 0] = np.nan
        rows = seal_rows(stack)
        msg = FedMessage.consensus(0, C0, rows[0])
        assert msg.matrix is not rows[0] and not np.shares_memory(msg.matrix, stack)
        with pytest.raises(ValueError, match="non-finite"):
            FedMessage.consensus(0, C0, rows[2])
        assert np.array_equal(stack_rows(rows[:2]), np.ones((2, 2, 2)))

    @pytest.mark.parametrize("sender", [0, 3, None, (3, "client")])
    def test_sender_must_be_a_party_id(self, sender):
        with pytest.raises(ValueError, match="sender must be a PartyId"):
            FedMessage.param_vector(0, sender, 0, np.ones(3))
        with pytest.raises(ValueError, match="sender must be a PartyId"):
            FedMessage(round=0, sender=sender, kind=1, matrix=np.ones((1, 1)))

    def test_party_ids(self):
        assert PartyId.from_wire(0xFFFFFFFF) == SERVER
        assert PartyId.from_wire(3) == PartyId.client(3)
        with pytest.raises(ValueError):
            PartyId.client(0xFFFFFFFF)


class TestWireFormat:
    def test_one_by_one_consensus_frame_layout(self):
        msg = FedMessage.consensus(5, SERVER, np.array([[1.0]]))
        frame = encode_message(msg)
        assert frame[:4] == b"FMV1"
        assert frame[4] == 1  # version
        assert frame[5] == int(MessageKind.CONSENSUS)
        assert struct.unpack_from("<I", frame, 6)[0] == 5
        assert struct.unpack_from("<I", frame, 10)[0] == 0xFFFFFFFF
        assert struct.unpack_from("<Q", frame, 14)[0] == len(frame) - 22
        assert len(frame) == 22 + 8 + 8 + 8
        assert frame[-8:] == struct.pack("<d", 1.0)
        assert decode_message(frame) == msg

    @pytest.mark.parametrize("kind", list(MessageKind))
    def test_golden_frame(self, kind):
        msg, frame = GOLDEN[kind]
        assert encode_message(msg) == frame
        assert decode_message(frame) == msg

    @pytest.mark.parametrize("kind", list(MessageKind))
    def test_cut_or_extended_frame_rejected(self, kind):
        # Every cut ends inside some field.  With the header's length as
        # sent the length check catches it; with the length rewritten to
        # match, the decoder of the field that was cut must.
        _, frame = GOLDEN[kind]
        for bad in [frame[:cut] for cut in range(len(frame))] + [frame + b"\x00"]:
            with pytest.raises(MalformedFrame):
                decode_message(bad)
            if len(bad) >= 22:
                with pytest.raises(MalformedFrame):
                    decode_message(with_payload_length(bad))

    def test_seeded_random_frames_unchanged(self):
        # SHA-256 over 500 seeded random frames of each kind: a change to
        # the bytes written for any kind or shape shows here.
        rng = np.random.default_rng(0)
        digest = hashlib.sha256()
        for kind in MessageKind:
            for _ in range(500):
                digest.update(encode_message(random_message(rng, kind)))
        assert digest.hexdigest() == (
            "eec3a397c4a0033426b26f1316297ce753970eed03713a0944274bb0dc6aba3a"
        )

    @pytest.mark.parametrize("kind", list(MessageKind))
    def test_frame_size_of_golden_frame(self, kind):
        msg, frame = GOLDEN[kind]
        assert frame_size(msg) == len(frame)

    def test_frame_size_of_seeded_random_frames(self):
        # The 3000 messages of test_seeded_random_frames_unchanged.
        rng = np.random.default_rng(0)
        for kind in MessageKind:
            for _ in range(500):
                msg = random_message(rng, kind)
                assert frame_size(msg) == len(encode_message(msg))

    def test_truncated_frame(self):
        frame = encode_message(FedMessage.consensus(0, C0, np.ones((2, 3))))
        with pytest.raises(MalformedFrame):
            decode_message(frame[:-1])
        with pytest.raises(MalformedFrame):
            decode_message(frame[:10])

    def test_bad_magic(self):
        frame = bytearray(encode_message(FedMessage.consensus(0, C0, np.ones((1, 1)))))
        frame[0] = ord(b"X")
        with pytest.raises(MalformedFrame):
            decode_message(bytes(frame))

    def test_bad_version(self):
        frame = bytearray(encode_message(FedMessage.consensus(0, C0, np.ones((1, 1)))))
        frame[4] = 2
        with pytest.raises(MalformedFrame):
            decode_message(bytes(frame))

    def test_unknown_kind(self):
        frame = bytearray(encode_message(FedMessage.consensus(0, C0, np.ones((1, 1)))))
        frame[5] = 42
        with pytest.raises(MalformedFrame):
            decode_message(bytes(frame))

    def test_trailing_bytes(self):
        frame = encode_message(FedMessage.consensus(0, C0, np.ones((1, 1))))
        with pytest.raises(MalformedFrame):
            decode_message(frame + b"\x00")

    def test_non_finite_payload_rejected(self):
        frame = bytearray(encode_message(FedMessage.consensus(0, C0, np.array([[1.0]]))))
        frame[-8:] = struct.pack("<d", float("nan"))
        with pytest.raises(MalformedFrame):
            decode_message(bytes(frame))

    def test_round_trip_all_kinds(self):
        rng = np.random.default_rng(1)
        for kind in MessageKind:
            for _ in range(20):
                msg = random_message(rng, kind)
                assert decode_message(encode_message(msg)) == msg


def fedavg_in_order(arrays, counts):
    """FedAvg as the terms are added one by one, in client order."""
    total = float(sum(counts))
    acc = (counts[0] / total) * arrays[0]
    for a, n in zip(arrays[1:], counts[1:]):
        acc += (n / total) * a
    return acc


class TestFedavg:
    @pytest.mark.parametrize("shape", [(1,), (2,), (57,), (1, 1), (1, 3), (3, 1), (6, 2)])
    def test_bitwise_equal_to_in_order_loop(self, shape):
        rng = np.random.default_rng(3)
        for n_clients in [*range(1, 40), 128, 129, 1000]:
            arrays = [
                rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8)
                for _ in range(n_clients)
            ]
            for a in arrays:
                a[rng.random(shape) < 0.2] = -0.0
            counts = [int(n) for n in rng.integers(1, 100, n_clients)]
            got = fedavg_aggregate(arrays, counts)
            want = fedavg_in_order(arrays, counts)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1,), (57,), (1, 1), (6, 2)])
    def test_sealed_rows_equal_the_stacked_path(self, shape):
        # Rows of a sealed stack in client order, out of order, a subset of
        # them, or mixed with plain arrays: each bit equal to np.stack of
        # plain copies.
        rng = np.random.default_rng(5)
        for n_clients in (1, 2, 7, 128):
            stack = rng.standard_normal((n_clients, *shape)) * 10.0 ** rng.uniform(-8, 8)
            stack[rng.random(stack.shape) < 0.2] = -0.0
            rows = seal_rows(stack)
            counts = [int(n) for n in rng.integers(1, 100, n_clients)]
            perm = rng.permutation(n_clients).tolist()
            some = perm[: max(1, n_clients // 2)]
            mixed = [r if i % 2 else r.copy() for i, r in enumerate(rows)]
            cases = [
                (rows, counts),
                ([rows[i] for i in perm], [counts[i] for i in perm]),
                ([rows[i] for i in some], [counts[i] for i in some]),
                (mixed, counts),
                ([rows[0]] * n_clients, counts),
            ]
            for arrays, weights in cases:
                plain = [a.copy() for a in arrays]
                got = fedavg_aggregate(arrays, weights)
                assert stack_rows(arrays).tobytes() == np.stack(plain).tobytes()
                assert got.tobytes() == fedavg_aggregate(plain, weights).tobytes()
                assert got.tobytes() == fedavg_in_order(plain, weights).tobytes()
            assert stack_rows(rows) is stack

    def test_negative_zero_kept(self):
        zeros = [np.full((2, 2), -0.0), np.full((2, 2), -0.0)]
        assert np.signbit(fedavg_aggregate(zeros, [1, 3])).all()
        assert np.signbit(fedavg_aggregate([np.array([-0.0])] * 9, [1] * 9)).all()


@pytest.mark.parametrize("transport_cls", [InProcessTransport, FramedByteTransport])
class TestTransports:
    def test_fifo_per_channel(self, transport_cls):
        tp = transport_cls()
        ep = tp.endpoint(C0)
        srv = tp.endpoint(SERVER)
        first = FedMessage.consensus(0, C0, np.array([[1.0]]))
        second = FedMessage.consensus(1, C0, np.array([[2.0]]))
        ep.send(SERVER, first)
        ep.send(SERVER, second)
        assert srv.receive(C0) == first
        assert srv.receive(C0) == second
        with pytest.raises(MissingClient):
            srv.receive(C0)

    def test_delivery_by_value(self, transport_cls):
        tp = transport_cls()
        ep = tp.endpoint(C0)
        payload = np.ones((2, 2))
        msg = FedMessage.consensus(0, C0, payload)
        ep.send(SERVER, msg)
        payload[:] = -1.0
        got = tp.endpoint(SERVER).receive(C0)
        assert np.array_equal(got.matrix, np.ones((2, 2)))

    def test_received_payload_is_read_only(self, transport_cls):
        tp = transport_cls()
        rng = np.random.default_rng(4)
        for kind in MessageKind:
            msg = random_message(rng, kind)
            tp.endpoint(msg.sender).send(SERVER, msg)
            got = tp.endpoint(SERVER).receive(msg.sender)
            arrays = [a for a in (got.matrix, got.vector) if a is not None]
            arrays += list(got.matrices or ())
            assert arrays
            for a in arrays:
                with pytest.raises(ValueError):
                    a[0] = 1.0

    def test_sender_binding_enforced(self, transport_cls):
        tp = transport_cls()
        msg = FedMessage.consensus(0, C1, np.ones((1, 1)))
        with pytest.raises(ValueError):
            tp.endpoint(C0).send(SERVER, msg)
        # An equal PartyId that is another object may send too.
        tp.endpoint(PartyId.client(1)).send(SERVER, msg)
        assert tp.endpoint(SERVER).receive(C1) == msg

    def test_concurrent_sends(self, transport_cls):
        tp = transport_cls()
        n_each = 50
        parties = [PartyId.client(i) for i in range(4)]

        def blast(party):
            ep = tp.endpoint(party)
            for r in range(n_each):
                ep.send(SERVER, FedMessage.consensus(r, party, np.full((1, 1), float(r))))

        threads = [threading.Thread(target=blast, args=(p,)) for p in parties]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        srv = tp.endpoint(SERVER)
        for p in parties:
            for r in range(n_each):
                assert srv.receive(p).round == r


class EchoServer:
    """Broadcasts the first reply of the previous round back to everyone."""

    reply_kind = MessageKind.CONSENSUS

    def __init__(self, stop_after=None):
        self.party = SERVER
        self.received = None
        self.senders = []
        self.stop_after = stop_after

    def broadcast(self, rnd):
        if self.received is None:
            return None
        return FedMessage.consensus(rnd, self.party, self.received.matrix)

    def aggregate(self, rnd, replies):
        self.received = replies[0]
        self.senders.append([m.sender.id for m in replies])

    def done(self):
        return self.stop_after is not None and len(self.senders) >= self.stop_after


class EchoClient:
    def __init__(self, payload, party=C0):
        self.party = party
        self.payload = payload
        self.echoed = None

    def step(self, rnd, msg):
        if msg is not None:
            self.echoed = msg
        return FedMessage.consensus(rnd, self.party, self.payload)


class SilentClient:
    def __init__(self, party):
        self.party = party

    def step(self, rnd, msg):
        return None


class WrongKindClient:
    def __init__(self, party):
        self.party = party

    def step(self, rnd, msg):
        return FedMessage.param_vector(rnd, self.party, 0, np.ones(2))


class FailingClient:
    def __init__(self, party):
        self.party = party

    def step(self, rnd, msg):
        raise RuntimeError("boom")


class TestRunRounds:
    def test_zero_rounds_empty_log(self):
        log = run_rounds(EchoServer(), [EchoClient(np.ones((1, 1)))],
                         InProcessTransport(), max_rounds=0)
        assert log.n_rounds == 0 and log.message_count() == 0

    @pytest.mark.parametrize("transport_cls", [InProcessTransport, FramedByteTransport])
    def test_echo_round_trip(self, transport_cls):
        rng = np.random.default_rng(3)
        payload = rng.standard_normal((3, 2))
        client = EchoClient(payload)
        log = run_rounds(EchoServer(), [client], transport_cls(), max_rounds=2)
        assert client.echoed is not None
        assert np.array_equal(client.echoed.matrix, payload)
        assert log.n_rounds == 2
        assert log.message_kinds() == {MessageKind.CONSENSUS}

    def test_identical_runs_identical_logs(self):
        def one_run():
            client = EchoClient(np.full((2, 2), 7.0))
            return run_rounds(EchoServer(), [client], InProcessTransport(), max_rounds=3)

        a, b = one_run(), one_run()
        assert a.message_count() == b.message_count()
        assert [
            [(m.sender, m.receiver, m.kind, m.n_bytes) for m in r.messages]
            for r in a.records
        ] == [
            [(m.sender, m.receiver, m.kind, m.n_bytes) for m in r.messages]
            for r in b.records
        ]

    def test_party_failure_carries_round_and_id(self):
        with pytest.raises(PartyFailure) as info:
            run_rounds(EchoServer(), [FailingClient(C1)], InProcessTransport(), 2)
        assert info.value.round_index == 0
        assert info.value.party_id == 1

    def test_stop_predicate(self):
        server = EchoServer(stop_after=2)
        log = run_rounds(server, [EchoClient(np.ones((1, 1)))],
                         InProcessTransport(), max_rounds=10)
        assert log.n_rounds == 2

    def test_default_transport_is_in_process(self):
        client = EchoClient(np.full((2, 1), 3.0))
        log = run_rounds(EchoServer(), [client], None, max_rounds=2)
        assert np.array_equal(client.echoed.matrix, client.payload)
        assert log.n_rounds == 2

    def test_disallowed_kinds_helper(self):
        client = EchoClient(np.ones((1, 1)))
        log = run_rounds(EchoServer(), [client], InProcessTransport(), 2)
        assert disallowed_kinds(log, {MessageKind.CONSENSUS}) == set()
        assert disallowed_kinds(log, {MessageKind.PARAM_VECTOR}) == {MessageKind.CONSENSUS}

    def test_byte_accounting_positive(self):
        log = run_rounds(EchoServer(), [EchoClient(np.ones((1, 1)))],
                         InProcessTransport(), 2)
        assert log.bytes_sent_by(C0.id) > 0
        assert log.total_bytes() >= log.bytes_sent_by(C0.id)

    def test_capture_records_every_frame(self):
        tp = FramedByteTransport(capture=True)
        log = run_rounds(EchoServer(), [EchoClient(np.ones((1, 1)))], tp, 2)
        assert len(tp.captured) == log.message_count()
        for frame in tp.captured:
            decode_message(frame)


@pytest.mark.parametrize("transport_cls", [InProcessTransport, FramedByteTransport])
class TestRoundContract:
    def test_missing_reply_names_round_and_client(self, transport_cls):
        clients = [EchoClient(np.ones((1, 1))), SilentClient(C1)]
        with pytest.raises(MissingClient, match=r"round 0\b.*client 1\b"):
            run_rounds(EchoServer(), clients, transport_cls(), max_rounds=2)

    def test_wrong_reply_kind_rejected(self, transport_cls):
        clients = [EchoClient(np.ones((1, 1))), WrongKindClient(C1)]
        with pytest.raises(ValueError, match="PARAM_VECTOR"):
            run_rounds(EchoServer(), clients, transport_cls(), max_rounds=2)

    def test_replies_arrive_in_client_order(self, transport_cls):
        clients = [
            EchoClient(np.full((1, 1), float(i)), PartyId.client(i)) for i in (2, 0, 1)
        ]
        server = EchoServer()
        run_rounds(server, clients, transport_cls(), max_rounds=3)
        assert server.senders == [[0, 1, 2]] * 3
        assert server.received.matrix[0, 0] == 0.0


class StackedEcho(EchoClient):
    """Echo client whose reply payload, twice its own, `steps` computes
    for every client of the class at once; a lone `step` is `steps` of a
    stack of one.  Events go to a shared list; a client with fail=True
    makes every stack it is in raise."""

    def __init__(self, payload, party, events, fail=False):
        super().__init__(payload, party)
        self.events = events
        self.fail = fail

    @classmethod
    def steps(cls, clients, rnd, msgs):
        clients[0].events.append(("steps", rnd, [c.party.id for c in clients]))
        if any(c.fail for c in clients):
            raise RuntimeError("boom")
        return [FedMessage.consensus(rnd, c.party, 2.0 * c.payload) for c in clients]

    def step(self, rnd, msg):
        self.events.append(("step", rnd, self.party.id))
        return type(self).steps([self], rnd, [msg])[0]


class SealedEcho(StackedEcho):
    """StackedEcho whose `steps` replies with the rows of one sealed
    stack."""

    @classmethod
    def steps(cls, clients, rnd, msgs):
        rows = seal_rows(np.stack([2.0 * c.payload for c in clients]))
        return [FedMessage.consensus(rnd, c.party, row) for c, row in zip(clients, rows)]


def lone_steps(events):
    return [e[1:] for e in events if e[0] == "step"]


@pytest.mark.parametrize("transport_cls", [InProcessTransport, FramedByteTransport])
class TestPrestep:
    """The driver's per-class `steps` call.  The class and two of its
    cases are named after `prestep`, the staging call `steps` replaced."""

    def test_called_once_per_round_before_the_steps(self, transport_cls):
        events = []
        clients = [
            StackedEcho(np.full((1, 1), float(i)), PartyId.client(i), events)
            for i in (2, 0, 1)
        ]
        server = EchoServer()
        run_rounds(server, clients, transport_cls(), max_rounds=3)
        # One stack a round, in client id order, and no lone step.
        assert events == [("steps", rnd, [0, 1, 2]) for rnd in range(3)]
        assert server.senders == [[0, 1, 2]] * 3
        assert server.received.matrix[0, 0] == 0.0

    def test_class_without_prestep_is_unaffected(self, transport_cls):
        def run(mixed):
            events = []
            clients = [
                StackedEcho(np.full((1, 1), 2.0 * i), PartyId.client(i), events)
                if mixed and i % 2 else EchoClient(np.full((1, 1), 4.0 * i), PartyId.client(i))
                for i in range(4)
            ]
            server = EchoServer()
            log = run_rounds(server, clients, transport_cls(), max_rounds=2)
            return server, log, events

        mixed, mixed_log, events = run(mixed=True)
        plain, plain_log, _ = run(mixed=False)
        assert events == [("steps", 0, [1, 3]), ("steps", 1, [1, 3])]
        assert mixed.senders == plain.senders == [[0, 1, 2, 3]] * 2
        assert mixed.received.matrix.tobytes() == plain.received.matrix.tobytes()
        assert [r.messages for r in mixed_log.records] == [
            r.messages for r in plain_log.records
        ]

    def test_failing_prestep_leaves_each_client_to_step_alone(self, transport_cls):
        events = []
        clients = [
            StackedEcho(np.ones((1, 1)), PartyId.client(i), events, fail=i == 2)
            for i in range(4)
        ]
        with pytest.raises(PartyFailure) as info:
            run_rounds(EchoServer(), clients, transport_cls(), max_rounds=2)
        assert (info.value.round_index, info.value.party_id) == (0, 2)
        assert str(info.value.cause) == "boom"
        # The stack raised, so each client stepped alone until client 2
        # failed; client 3 never stepped.
        assert events[0] == ("steps", 0, [0, 1, 2, 3])
        assert lone_steps(events) == [(0, 0), (0, 1), (0, 2)]

    def test_sealed_replies_reach_the_server_as_sent(self, transport_cls):
        events = []
        clients = [
            SealedEcho(np.full((2, 2), float(i)), PartyId.client(i), events) for i in range(3)
        ]
        server = EchoServer()
        run_rounds(server, clients, transport_cls(), max_rounds=2)
        assert lone_steps(events) == []
        assert server.received.matrix.tobytes() == np.zeros((2, 2)).tobytes()
        # In process the server holds the client's row of the sealed stack.
        in_process = transport_cls is InProcessTransport
        assert (server.received.matrix.base is not None) == in_process

    def test_non_finite_stack_names_the_failing_client(self, transport_cls):
        events = []
        clients = [
            SealedEcho(np.full((2, 2), float(i)), PartyId.client(i), events) for i in range(4)
        ]
        clients[2].payload[1, 0] = np.inf
        with pytest.raises(PartyFailure) as info:
            run_rounds(EchoServer(), clients, transport_cls(), max_rounds=2)
        assert (info.value.round_index, info.value.party_id) == (0, 2)
        assert "non-finite" in str(info.value.cause)
        # The stack's reply for client 2 raised, so each client stepped
        # alone, as a stack of one, until client 2 failed.
        assert lone_steps(events) == [(0, 0), (0, 1), (0, 2)]
