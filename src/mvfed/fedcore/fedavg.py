"""Sample-weighted federated averaging (McMahan et al., AISTATS 2017)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import DimensionMismatch, InvalidSpec, MissingClient

__all__ = ["fedavg_aggregate"]


def fedavg_aggregate(arrays: Sequence[np.ndarray], counts: Sequence[int]) -> np.ndarray:
    """Sample-count-weighted average of same-shape arrays, one per client.

    Sums `n / total * array` in client order, so equal inputs give
    bit-identical results.
    """
    if len(arrays) == 0:
        raise MissingClient("no arrays to aggregate")
    if len(arrays) != len(counts):
        raise MissingClient(f"{len(arrays)} arrays for {len(counts)} registered clients")
    if any(n < 1 for n in counts):
        raise InvalidSpec("every client must hold at least one sample")
    if any(a.shape != arrays[0].shape for a in arrays):
        raise DimensionMismatch("client arrays differ in shape")
    total = float(sum(counts))
    acc = (counts[0] / total) * arrays[0]
    for a, n in zip(arrays[1:], counts[1:]):
        acc += (n / total) * a
    return acc
