import hashlib
import struct
import sys
import threading

import numpy as np
import pytest

from mvfed.errors import InvalidSpec, MalformedFrame, MissingClient, PartyFailure
from mvfed.fedcore import (
    BlockClient,
    FedMessage,
    Federation,
    FramedByteTransport,
    InProcessTransport,
    MessageKind,
    MessageRecord,
    PartyId,
    RoundLog,
    decode_message,
    disallowed_kinds,
    encode_message,
    fedavg_aggregate,
    frame_size,
    run_federations,
    run_rounds,
    seal_rows,
    stack_rows,
)
from mvfed.fedcore.messages import PAYLOADS
from suite_utils import ScalingClient, fedavg_in_order, scaling_federation
from test_contracts import check_batch, check_replies, check_run_federations, draw_replies

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

    def test_batch_equals_messages_built_one_at_a_time(self):
        rng = np.random.default_rng(12)
        senders = [PartyId.client(i) for i in (3, 0, 7)]
        stacks = [rng.standard_normal((3, 4, 2)), rng.standard_normal((3, 5, 2))]
        vectors = rng.standard_normal((3, 6))
        cases = [
            (MessageKind.PARAM_VECTOR, dict(view=2), dict(vector=list(vectors))),
            (MessageKind.CONSENSUS, {}, dict(matrix=list(stacks[0]))),
            (MessageKind.PSEUDO_LABEL, dict(zeta=0.5), dict(matrix=list(stacks[1]))),
            (MessageKind.TEST_PSEUDO_LABEL, dict(zeta=3.0), dict(matrix=list(stacks[0]))),
            (MessageKind.TRANSFORM_SET, {}, dict(matrices=list(zip(*stacks)))),
        ]
        for kind, shared, rows in cases:
            check_batch(9, senders, kind, {**shared, **rows})
        check_batch(0, [], MessageKind.PARAM_VECTOR, dict(view=0, vector=[]))

    def test_batch_keeps_sealed_rows_and_copies_the_rest(self):
        rows = seal_rows(np.arange(12.0).reshape(3, 4))
        got = FedMessage.batch(1, [C0, C1, PartyId.client(2)], MessageKind.PARAM_VECTOR,
                               view=0, vector=rows)
        assert all(m.vector is r for m, r in zip(got, rows))
        # `stack_rows` and `fedavg_aggregate` still read the sealed stack.
        assert stack_rows([m.vector for m in got]) is stack_rows(rows)
        plain = np.ones((2, 4))
        copied = FedMessage.batch(1, [C0, C1], MessageKind.PARAM_VECTOR, view=0, vector=plain)
        assert not any(np.shares_memory(m.vector, plain) for m in copied)
        # A transform set keeps each sealed row of each stack.
        stacks = [seal_rows(np.ones((2, 3, 2))), seal_rows(np.zeros((2, 1, 2)))]
        sets = FedMessage.batch(1, [C0, C1], MessageKind.TRANSFORM_SET, matrices=list(zip(*stacks)))
        for i, msg in enumerate(sets):
            assert msg.matrices[0] is stacks[0][i] and msg.matrices[1] is stacks[1][i]

    @pytest.mark.parametrize("sender", [0, None, (3, "client")])
    def test_batch_rejects_a_sender_that_is_not_a_party_id(self, sender):
        with pytest.raises(ValueError, match="sender must be a PartyId"):
            FedMessage.batch(0, [C0, sender], MessageKind.PARAM_VECTOR, view=0,
                             vector=np.ones((2, 3)))

    def test_batch_checks_as_the_constructor_does(self):
        rows = list(np.ones((2, 3)))
        batch = FedMessage.batch
        with pytest.raises(ValueError, match="round"):
            batch(2**32, [C0, C1], MessageKind.PARAM_VECTOR, view=0, vector=rows)
        with pytest.raises(ValueError, match="unknown message kind"):
            batch(0, [C0, C1], 99, view=0, vector=rows)
        with pytest.raises(ValueError, match="requires view"):
            batch(0, [C0, C1], MessageKind.PARAM_VECTOR, vector=rows)
        with pytest.raises(ValueError, match="does not carry zeta"):
            batch(0, [C0, C1], MessageKind.PARAM_VECTOR, view=0, vector=rows, zeta=1.0)
        with pytest.raises(ValueError, match="view index"):
            batch(0, [C0, C1], MessageKind.PARAM_VECTOR, view=-1, vector=rows)
        with pytest.raises(ValueError, match="2 senders, 1 vector values"):
            batch(0, [C0, C1], MessageKind.PARAM_VECTOR, view=0, vector=rows[:1])
        # A row that fails its check is its sender's failure.
        with pytest.raises(PartyFailure) as info:
            batch(0, [C0, C1], MessageKind.PARAM_VECTOR, view=0, vector=[rows[0], np.ones((1, 3))])
        assert (info.value.round_index, info.value.party_id) == (0, 1)
        assert type(info.value.cause) is ValueError
        assert "must be 1-D" in str(info.value.cause)
        with pytest.raises(TypeError, match="vectors"):
            batch(0, [C0, C1], MessageKind.PARAM_VECTOR, view=0, vectors=rows)
        # The one with a non-finite row raises; a stack that is not
        # finite is not sealed, so each row is checked on its own.
        stack = np.ones((3, 2))
        stack[1, 0] = np.nan
        with pytest.raises(PartyFailure) as info:
            batch(3, [C0, PartyId.client(5), PartyId.client(2)], MessageKind.PARAM_VECTOR,
                  view=0, vector=seal_rows(stack))
        assert (info.value.round_index, info.value.party_id) == (3, 5)
        assert type(info.value.cause) is ValueError
        assert "non-finite" in str(info.value.cause)
        assert batch(0, [C0], MessageKind.PARAM_VECTOR, view=0, vector=seal_rows(stack)[:1])

    def test_party_ids(self):
        assert PartyId(0xFFFFFFFF) == SERVER == PartyId.server()
        assert PartyId(3) == PartyId.client(3) != SERVER
        with pytest.raises(ValueError):
            PartyId.client(0xFFFFFFFF)
        for bad in (-1, 2**32):
            with pytest.raises(ValueError, match="u32"):
                PartyId(bad)


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
        rng = np.random.default_rng(5)
        for n_clients in (1, 2, 7, 128):
            stack, rows, cases = draw_replies(rng, n_clients, shape)
            assert stack_rows(rows) is stack
            for arrays, counts in cases:
                check_replies(arrays, counts)

    def test_negative_zero_kept(self):
        zeros = [np.full((2, 2), -0.0), np.full((2, 2), -0.0)]
        assert np.signbit(fedavg_aggregate(zeros, [1, 3])).all()
        assert np.signbit(fedavg_aggregate([np.array([-0.0])] * 9, [1] * 9)).all()


@pytest.mark.parametrize("transport_cls", [InProcessTransport, FramedByteTransport])
class TestTransports:
    def test_fifo_per_channel(self, transport_cls):
        tp = transport_cls()
        first = FedMessage.consensus(0, C0, np.array([[1.0]]))
        second = FedMessage.consensus(1, C0, np.array([[2.0]]))
        tp.send_all([(C0, SERVER, first)])
        tp.send_all([(C0, SERVER, second)])
        assert tp.receive_all([(C0, SERVER)]) == [first]
        assert tp.receive_all([(C0, SERVER)]) == [second]
        with pytest.raises(MissingClient):
            tp.receive_all([(C0, SERVER)])

    def test_delivery_by_value(self, transport_cls):
        tp = transport_cls()
        payload = np.ones((2, 2))
        msg = FedMessage.consensus(0, C0, payload)
        tp.send_all([(C0, SERVER, msg)])
        payload[:] = -1.0
        [got] = tp.receive_all([(C0, SERVER)])
        assert np.array_equal(got.matrix, np.ones((2, 2)))

    def test_received_payload_is_read_only(self, transport_cls):
        tp = transport_cls()
        rng = np.random.default_rng(4)
        for kind in MessageKind:
            msg = random_message(rng, kind)
            tp.send_all([(msg.sender, SERVER, msg)])
            [got] = tp.receive_all([(msg.sender, SERVER)])
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
            tp.send_all([(C0, SERVER, msg)])
        # An equal PartyId that is another object may send too.
        tp.send_all([(PartyId.client(1), SERVER, msg)])
        assert tp.receive_all([(C1, SERVER)]) == [msg]

    def test_concurrent_sends(self, transport_cls):
        tp = transport_cls()
        n_each = 50
        parties = [PartyId.client(i) for i in range(4)]

        def blast(party):
            for r in range(n_each):
                msg = FedMessage.consensus(r, party, np.full((1, 1), float(r)))
                tp.send_all([(party, SERVER, msg)])

        threads = [threading.Thread(target=blast, args=(p,)) for p in parties]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for p in parties:
            for r in range(n_each):
                assert tp.receive_all([(p, SERVER)])[0].round == r

    def test_phase_calls_keep_fifo_per_channel(self, transport_cls):
        tp = transport_cls()
        c2 = PartyId.client(2)
        sends = [
            (party, SERVER, FedMessage.consensus(r, party, np.full((1, 1), 10.0 * r + party.id)))
            for r in range(3) for party in (C1, C0, c2)
        ]
        tp.send_all(sends[:4])
        tp.send_all([(C0, SERVER, FedMessage.consensus(7, C0, np.zeros((1, 1))))])
        tp.send_all(sends[4:])
        got = tp.receive_all([(C0, SERVER), (C0, SERVER), (c2, SERVER), (C1, SERVER)])
        assert [m.round for m in got] == [0, 7, 0, 0]
        got = tp.receive_all([(C0, SERVER), (C1, SERVER), (C1, SERVER), (c2, SERVER)])
        assert [m.round for m in got] == [1, 1, 2, 1]
        assert tp.receive_all([(C0, SERVER)]) == [sends[7][2]]
        assert tp.receive_all([(c2, SERVER)]) == [sends[8][2]]
        # An empty channel is named; the channels listed before it were read.
        with pytest.raises(MissingClient, match="no message from"):
            tp.receive_all([(C0, SERVER)])

    def test_phase_call_checks_every_sender_before_queueing(self, transport_cls):
        tp = transport_cls()
        good = FedMessage.consensus(0, C0, np.ones((1, 1)))
        with pytest.raises(ValueError, match="cannot send as"):
            tp.send_all([(C0, SERVER, good), (C0, SERVER, FedMessage.consensus(0, C1, np.ones((1, 1))))])
        with pytest.raises(MissingClient):
            tp.receive_all([(C0, SERVER)])

    def test_push_override_sees_every_message(self, transport_cls):
        seen = []

        class Recording(transport_cls):
            def _push(self, frm, to, msg):
                seen.append((frm.id, to.id, msg))
                super()._push(frm, to, msg)

        tp = Recording()
        parties = [PartyId.client(i) for i in range(3)]
        msg = FedMessage.consensus(0, SERVER, np.ones((1, 2)))
        tp.send_all([(SERVER, p, msg) for p in parties])
        assert seen == [(SERVER.id, p.id, msg) for p in parties]
        assert tp.receive_all([(SERVER, p) for p in parties]) == [msg] * 3
        seen.clear()
        clients = [EchoClient(np.full((1, 1), float(i)), PartyId.client(i)) for i in range(3)]
        log = run_rounds(EchoServer(), clients, tp, max_rounds=2)
        logged = [(m.sender, m.receiver, m.kind) for r in log.records for m in r.messages]
        assert [(frm, to, m.kind) for frm, to, m in seen] == logged and len(seen) == 9

    def test_concurrent_phase_calls(self, transport_cls):
        tp = transport_cls()
        n_each, parties = 40, [PartyId.client(i) for i in range(6)]
        errors = []

        def blast(party):
            try:
                for r in range(n_each):
                    msg = FedMessage.consensus(r, party, np.full((1, 1), float(r)))
                    tp.send_all([(party, SERVER, msg), (party, SERVER, msg)])
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=blast, args=(p,)) for p in parties]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        for p in parties:
            got = tp.receive_all([(p, SERVER)] * (2 * n_each))
            assert [m.round for m in got] == [r for r in range(n_each) for _ in (0, 1)]


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

    def test_message_records_are_named_tuples_of_four_fields(self):
        log = run_rounds(EchoServer(), [EchoClient(np.ones((1, 2)))], InProcessTransport(), 2)
        first, *rest = [m for r in log.records for m in r.messages]
        assert MessageRecord._fields == ("sender", "receiver", "kind", "n_bytes")
        assert first == MessageRecord(C0.id, SERVER.id, MessageKind.CONSENSUS, 54)
        assert (first.sender, first.receiver, first.kind, first.n_bytes) == tuple(first)
        assert first != MessageRecord(C0.id, SERVER.id, MessageKind.CONSENSUS, 55)
        assert rest[0] == MessageRecord(SERVER.id, C0.id, MessageKind.CONSENSUS, 54)

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
    for every client of the class at once; a lone `step`, which the
    driver never calls, is `steps` of a stack of one.  Events go to a
    shared list; a client with fail=True makes every stack it is in
    raise a RuntimeError, which is no client's own failure."""

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
    stack, each built by the constructor; a row it rejects is its
    client's failure."""

    @classmethod
    def steps(cls, clients, rnd, msgs):
        clients[0].events.append(("steps", rnd, [c.party.id for c in clients]))
        rows = seal_rows(np.stack([2.0 * c.payload for c in clients]))
        replies = []
        for c, row in zip(clients, rows):
            try:
                replies.append(FedMessage.consensus(rnd, c.party, row))
            except ValueError as exc:
                raise PartyFailure(rnd, c.party.id, exc) from exc
        return replies


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

    def test_failing_steps_propagates_unchanged(self, transport_cls):
        # An exception from `steps` that is no client's own failure ends
        # the run as it is: no client steps alone, and the round that
        # raised reaches no server and no log.
        events = []
        clients = [StackedEcho(np.ones((1, 1)), PartyId.client(i), events) for i in range(4)]
        server, log = EchoServer(), RoundLog()
        run_rounds(server, clients, transport_cls(), max_rounds=1, log=log)
        clients[2].fail = True
        with pytest.raises(RuntimeError, match="^boom$") as info:
            run_rounds(server, clients, transport_cls(), max_rounds=2, log=log)
        assert type(info.value) is RuntimeError
        assert events == [("steps", 0, [0, 1, 2, 3])] * 2
        assert lone_steps(events) == []
        assert server.senders == [[0, 1, 2, 3]] and log.n_rounds == 1

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
        # One stack, whose reply for client 2 raised; no client steps alone.
        assert events == [("steps", 0, [0, 1, 2, 3])]
        assert lone_steps(events) == []


class BatchEcho(StackedEcho):
    """StackedEcho whose `steps` replies with `FedMessage.batch` over the
    rows of one sealed stack."""

    @classmethod
    def steps(cls, clients, rnd, msgs):
        clients[0].events.append(("steps", rnd, [c.party.id for c in clients]))
        rows = seal_rows(np.stack([2.0 * c.payload for c in clients]))
        return FedMessage.batch(rnd, [c.party for c in clients], MessageKind.CONSENSUS, matrix=rows)


class TestPhases:
    """A round's traffic moves per phase: one transport call sends or
    receives every message of a phase."""

    def test_framed_phase_encodes_and_decodes_every_message(self, monkeypatch):
        import mvfed.fedcore.transport as transport

        encoded, decoded = [], []
        encode, decode = transport.encode_message, transport.decode_message
        monkeypatch.setattr(transport, "encode_message", lambda m: encoded.append(m) or encode(m))
        monkeypatch.setattr(transport, "decode_message", lambda f: decoded.append(f) or decode(f))
        tp = FramedByteTransport(capture=True)
        parties = [PartyId.client(i) for i in range(4)]
        a = FedMessage.consensus(0, SERVER, np.ones((2, 2)))
        b = FedMessage.consensus(1, SERVER, np.zeros((1, 2)))
        sends = [(SERVER, p, m) for m in (a, b) for p in parties] + [(SERVER, parties[0], a)]
        tp.send_all(sends)
        # One encode and one frame per (sender, receiver), in send order.
        assert encoded == [m for _, _, m in sends]
        assert tp.captured == [encode(m) for _, _, m in sends]
        got = tp.receive_all([(SERVER, p) for p in parties] * 2 + [(SERVER, parties[0])])
        # One decode per frame popped, each its own message.
        assert decoded == tp.captured
        assert got == [m for _, _, m in sends] and len({id(m) for m in got}) == len(got)

    @pytest.mark.parametrize("transport_cls", [InProcessTransport, FramedByteTransport])
    def test_run_round_makes_four_transport_calls(self, transport_cls, monkeypatch):
        calls = []
        for name in ("send_all", "receive_all"):
            original = getattr(transport_cls, name)

            def counting(self, items, name=name, original=original):
                calls.append((name, len(items)))
                return original(self, items)

            monkeypatch.setattr(transport_cls, name, counting)
        events = []
        clients = [BatchEcho(np.full((1, 1), float(i)), PartyId.client(i), events) for i in range(5)]
        server = EchoServer()
        log = run_rounds(server, clients, transport_cls(), max_rounds=3)
        # Round 0 has no broadcast; each later round broadcasts.
        replies = [("send_all", 5), ("receive_all", 5)]
        assert calls == replies + 2 * ([("send_all", 5), ("receive_all", 5)] + replies)
        assert lone_steps(events) == [] and server.senders == [[0, 1, 2, 3, 4]] * 3
        assert log.message_count() == 5 + 2 * 10

    @pytest.mark.parametrize("transport_cls", [InProcessTransport, FramedByteTransport])
    def test_non_finite_batch_row_names_its_client(self, transport_cls):
        events = []
        clients = [BatchEcho(np.full((2, 2), float(i)), PartyId.client(i), events) for i in range(4)]
        clients[2].payload[0, 1] = np.nan
        with pytest.raises(PartyFailure) as info:
            run_rounds(EchoServer(), clients, transport_cls(), max_rounds=2)
        assert (info.value.round_index, info.value.party_id) == (0, 2)
        assert "non-finite" in str(info.value.cause)
        # One stack, whose batch named client 2; no client steps alone.
        assert events == [("steps", 0, [0, 1, 2, 3])]
        assert lone_steps(events) == []


class TestRunFederations:
    """Several federations in lock-step: each runs exactly as it does
    alone, while one `steps` call a round serves all of them."""

    # (seed, clients, stop_after): the second federation stops after two
    # of the four rounds.
    SPECS = [(0, 3, None), (1, 2, 2), (2, 4, None)]

    def test_each_federation_matches_its_solo_run(self):
        # One stack a round over every live federation's clients.
        assert check_run_federations(self.SPECS, max_rounds=4) == [9, 9, 7, 7]

    @pytest.mark.parametrize("transport_cls", [InProcessTransport, FramedByteTransport])
    def test_failing_client_is_named_in_its_federation(self, transport_cls):
        calls = []
        feds = [scaling_federation(seed, n, calls) for seed, n, _ in self.SPECS]
        feds[1][1][0].fail = True  # client 1 of the second federation
        transport = transport_cls()
        with pytest.raises(PartyFailure) as info:
            run_federations([Federation(s, c, transport) for s, c in feds], max_rounds=3)
        assert (info.value.round_index, info.value.party_id) == (0, 1)
        assert str(info.value.cause) == "boom"
        # One stack over all three federations, and no server aggregated.
        assert calls == [9]
        assert [server.rounds for server, _ in feds] == [0, 0, 0]

    @pytest.mark.parametrize("bad, error, match", [
        (SilentClient, MissingClient, r"round 0\b.*client 2\b"),
        (WrongKindClient, ValueError, r"round 0: client 2 sent PARAM_VECTOR"),
        (FailingClient, PartyFailure, r"party 2 failed in round 0"),
    ], ids=["missing", "wrong_kind", "failing"])
    def test_failing_round_aggregates_in_no_federation(self, bad, error, match):
        # Every client answers and every federation's replies are checked
        # before any server aggregates, so a client of the second
        # federation that fails keeps the first from aggregating too.
        calls = []
        feds = [scaling_federation(seed, n, calls) for seed, n, _ in self.SPECS[:2]]
        feds[1][1].append(bad(PartyId.client(2)))
        with pytest.raises(error, match=match):
            run_federations([Federation(s, c) for s, c in feds], max_rounds=2)
        assert calls == [5]
        assert [server.rounds for server, _ in feds] == [0, 0]

    def test_repeated_client_id_is_rejected_before_any_broadcast(self):
        # A second client 0 would share the first one's FedAvg count.
        calls, transport = [], FramedByteTransport(capture=True)
        feds = [scaling_federation(seed, n, calls) for seed, n, _ in self.SPECS[:2]]
        feds[1][1].append(ScalingClient(PartyId.client(0), 2.0, calls))
        with pytest.raises(InvalidSpec, match="^client 0 joins a federation twice$"):
            run_federations([Federation(s, c, transport) for s, c in feds], max_rounds=2)
        assert transport.captured == [] and calls == []
        assert [server.rounds for server, _ in feds] == [0, 0]


class FakeBlock:
    """A block of n slots for `Slot`: the slots of each run of its math,
    in order, and the rounds it committed; fail=True makes its math
    raise after it runs."""

    def __init__(self, n, fail=False):
        self.n, self.fail = n, fail
        self.runs, self.committed = [], []

    def __len__(self):
        return self.n


class Slot(BlockClient):
    """A slot of a FakeBlock whose reply is its broadcast plus its slot;
    a broadcast of None is one it cannot take."""

    def __init__(self, party, block, slot):
        self.party, self.block, self.slot = party, block, slot

    def check_broadcast(self, rnd, msg):
        if msg is None:
            raise ValueError("no broadcast")

    @classmethod
    def run_block(cls, rnd, clients, msgs):
        block = clients[0].block
        block.runs.append([c.slot for c in clients])
        if block.fail:
            raise RuntimeError("boom")
        replies = [FedMessage.consensus(rnd, c.party, m.matrix + c.slot) for c, m in zip(clients, msgs)]
        return replies, lambda: block.committed.append(rnd)


def two_blocks(fail=False):
    """Blocks of 2 and 3 slots, the second raising if fail, and their
    clients 0-4, block by block in slot order."""
    a, b = FakeBlock(2), FakeBlock(3, fail)
    slots = [(a, 0), (a, 1), (b, 0), (b, 1), (b, 2)]
    return a, b, [Slot(PartyId.client(i), block, s) for i, (block, s) in enumerate(slots)]


def sent(rnd, value=0.0):
    return FedMessage.consensus(rnd, SERVER, np.full((1, 1), value))


class TestBlockClient:
    """The block contract of `fedcore.rounds`, on a fake class of two
    blocks."""

    def test_interleaved_call_order_gets_replies_in_call_order(self):
        a, b, clients = two_blocks()
        order = [3, 0, 4, 2, 1]
        replies = Slot.steps([clients[i] for i in order], 1, [sent(1, 10.0 * i) for i in order])
        assert [r.sender.id for r in replies] == order
        assert [r.matrix[0, 0] for r in replies] == [10.0 * i + clients[i].slot for i in order]
        assert (a.runs, b.runs) == ([[0, 1]], [[0, 1, 2]])
        assert a.committed == b.committed == [1]

    def test_raising_block_leaves_every_block_uncommitted(self):
        a, b, clients = two_blocks(fail=True)
        with pytest.raises(RuntimeError, match="^boom$"):
            Slot.steps(clients, 0, [sent(0)] * 5)
        assert (a.runs, b.runs) == ([[0, 1]], [[0, 1, 2]])
        assert a.committed == b.committed == []

    def test_first_bad_broadcast_in_call_order_is_named(self):
        a, b, clients = two_blocks()
        order, bad = [4, 3, 0, 1, 2], {1, 3}
        msgs = [None if i in bad else sent(2) for i in order]
        with pytest.raises(PartyFailure) as info:
            Slot.steps([clients[i] for i in order], 2, msgs)
        assert (info.value.round_index, info.value.party_id) == (2, 3)
        assert type(info.value.cause) is ValueError
        with pytest.raises(PartyFailure) as info:
            clients[1].step(2, None)
        assert info.value.party_id == 1
        assert a.runs == b.runs == []

    @pytest.mark.parametrize("taken, covered", [
        ([0, 1, 2, 3], 2), ([1, 0, 3, 2, 3], 3), ([2], 1),
    ], ids=["missing", "duplicated", "lone"])
    def test_partial_block_is_rejected_before_any_block_runs(self, taken, covered):
        a, b, clients = two_blocks()
        with pytest.raises(InvalidSpec, match=f"^round 0: a step covers {covered} of its block's 3 clients$"):
            Slot.steps([clients[i] for i in taken], 0, [sent(0)] * len(taken))
        assert a.runs == b.runs == []
