"""Horizontal federation: every client holds all views of its own rows.

Four hospitals-style shards of the same three-view problem.  Each round
the server broadcasts the current transforms, every client refits them
on its local rows, and the server averages the refits weighted by shard
size.  We compare the federated model against the isolated baseline
where each client trains alone on its shard, evaluating both on the
clients' held-out rows.
"""

import numpy as np

from mvfed.data import GeneratorSpec, gen_multiview, partition_horizontal
from mvfed.hfed import hfed_train
from mvfed.metrics import average_rows, compute_metrics
from mvfed.mvl import HyperParams, argmax_decode, predict_mvl

SEED = 3
N_CLIENTS = 4


def split_shard(shard, rng):
    """Hold out a random 25% of the shard's rows for evaluation."""
    order = rng.permutation(shard.n_samples)
    cut = (3 * shard.n_samples) // 4
    return shard.subset(np.sort(order[:cut])), shard.subset(np.sort(order[cut:]))


def score(transforms, zeta, test_shards):
    """Average client metrics for one set of shared transforms; each
    client predicts its own rows locally."""
    rows = []
    for shard in test_shards:
        est = predict_mvl(shard.views, transforms, zeta)
        rows.append(compute_metrics(argmax_decode(est), shard.class_indices()))
    return average_rows(rows)


def main():
    spec = GeneratorSpec(
        n_samples=480, dims=(8, 6, 4), n_classes=3,
        noise=1.4, margin=1.6, seed=SEED,
    )
    data = gen_multiview(spec)
    shards = partition_horizontal(data, N_CLIENTS, seed=SEED)
    rng = np.random.default_rng(SEED)
    pairs = [split_shard(s, rng) for s in shards]
    train_shards = [p[0] for p in pairs]
    test_shards = [p[1] for p in pairs]
    sizes = [s.n_samples for s in train_shards]
    print(f"{N_CLIENTS} clients, train rows per client: {sizes}")

    hp = HyperParams.uniform(3, beta=4.0, zeta=8.0, eta=8.0)

    result = hfed_train(train_shards, hp, SEED, rounds=20, max_local=30)
    fed = score(result.transforms, hp.zeta, test_shards)
    print(f"\nfederated round traffic: {result.log.n_rounds} rounds, "
          f"{result.log.total_bytes()} bytes total")
    print(f"federated accuracy (client average): {fed.accuracy:.3f}")

    # Isolation baseline: each client runs the same trainer alone, which
    # is just the protocol with a single party.
    local_rows = []
    for k, (tr, te) in enumerate(pairs):
        solo = hfed_train([tr], hp, SEED, rounds=20, max_local=30)
        est = predict_mvl(te.views, solo.transforms, hp.zeta)
        row = compute_metrics(argmax_decode(est), te.class_indices())
        local_rows.append(row)
        print(f"client {k} alone: accuracy {row.accuracy:.3f} on {te.n_samples} rows")
    local = average_rows(local_rows)

    print(f"\nisolated average accuracy:  {local.accuracy:.3f}")
    print(f"federation gain:            {fed.accuracy - local.accuracy:+.3f}")


if __name__ == "__main__":
    main()
