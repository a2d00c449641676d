import io
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
    read_frame,
    run_rounds,
    write_frame,
)

SERVER = PartyId.server()
C0 = PartyId.client(0)
C1 = PartyId.client(1)


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

    def test_arrays_copied_at_construction(self):
        m = np.ones((2, 2))
        msg = FedMessage.consensus(0, C0, m)
        m[0, 0] = 99.0
        assert msg.matrix[0, 0] == 1.0

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

    def test_stream_read_write(self):
        rng = np.random.default_rng(2)
        msgs = [random_message(rng, k) for k in MessageKind]
        buf = io.BytesIO()
        for m in msgs:
            write_frame(buf, m)
        buf.seek(0)
        out = []
        while (m := read_frame(buf)) is not None:
            out.append(m)
        assert out == msgs

    def test_stream_mid_frame_eof(self):
        frame = encode_message(FedMessage.consensus(0, C0, np.ones((2, 2))))
        with pytest.raises(MalformedFrame):
            read_frame(io.BytesIO(frame[:-3]))
        with pytest.raises(MalformedFrame):
            read_frame(io.BytesIO(frame[:8]))


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
