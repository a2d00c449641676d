"""Vertical federation: one client per feature view, shared sample rows.

Three parties each own one view of the same 200 samples.  Raw features
never leave their owner; the round traffic is the server's consensus
matrix going out and (transform output, pseudo-label) updates coming
back.  Because every party starts from the same seeded state and runs
the same closed-form updates as the centralized trainer, the federated
transforms match `train_mvl` exactly, not just approximately, and the
federated predictions match `predict_mvl`; the script asserts both, so
it fails when the vertical contract breaks.  We run the protocol over
the length-prefixed byte transport to also count the actual wire
traffic.
"""

import numpy as np

from mvfed.data import GeneratorSpec, gen_multiview
from mvfed.fedcore import (
    SERVER_WIRE_ID,
    FramedByteTransport,
    MessageKind,
    RoundLog,
)
from mvfed.mvl import HyperParams, argmax_decode, predict_mvl, train_mvl
from mvfed.vfed import vfed_predict, vfed_train

SEED = 11


def main():
    spec = GeneratorSpec(
        n_samples=200, dims=(8, 6, 4), n_classes=2,
        noise=1.0, margin=2.0, seed=SEED,
    )
    data = gen_multiview(spec)

    # A tiny positive tolerance would let either loop stop early on its
    # own schedule; pinning it below representable relative drift makes
    # both sides run the same fixed number of rounds.
    hp = HyperParams.uniform(
        3, beta=4.0, zeta=8.0, eta=8.0,
        tol=1e-300, max_outer=40, max_inner=6,
    )

    central, _ = train_mvl(data, hp, SEED)

    log = RoundLog()
    result = vfed_train(data, hp, SEED, transport=FramedByteTransport(), log=log)

    same_w = all(np.array_equal(a, b) for a, b in zip(result.transforms, central.W))
    same_z = np.array_equal(result.consensus, central.Z)
    print(f"transforms identical to centralized run: {same_w}")
    print(f"consensus identical to centralized run:  {same_z}")
    assert same_w and same_z, "vfed_train differs from train_mvl"

    print(f"\nrounds: {log.n_rounds}, messages: {log.message_count()}")
    kinds = sorted(k.name for k in log.message_kinds())
    print(f"message kinds on the wire: {', '.join(kinds)}")
    down = log.bytes_sent_by(SERVER_WIRE_ID)
    print(f"server sent {down} bytes, clients sent {log.total_bytes() - down} bytes")

    # Nothing in the log should be a raw-feature payload.
    assert MessageKind.CONSENSUS in log.message_kinds()
    per_round = log.total_bytes() / log.n_rounds
    print(f"average traffic per round: {per_round:.0f} bytes")

    # Prediction is one round without labels: clients send their
    # transform outputs once, and the server runs predict_mvl's own loop
    # on them, so nothing goes back out.
    scores = vfed_predict(data.views, result.transforms, hp.zeta)
    central_scores = predict_mvl(data.views, central.W, hp.zeta)
    same_scores = np.array_equal(scores, central_scores)
    print(f"\nfederated predictions match centralized: {same_scores}")
    assert same_scores, "vfed_predict differs from predict_mvl"
    acc = np.mean(argmax_decode(scores) == data.class_indices())
    print(f"training-set accuracy: {acc:.3f}")


if __name__ == "__main__":
    main()
