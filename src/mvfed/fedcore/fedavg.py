"""Sample-weighted federated averaging (McMahan et al., AISTATS 2017)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import DimensionMismatch, InvalidSpec, MissingClient
from .messages import stack_rows

__all__ = ["fedavg_aggregate"]


def fedavg_aggregate(arrays: Sequence[np.ndarray], counts: Sequence[int]) -> np.ndarray:
    """Sample-count-weighted average of same-shape arrays, one per client.

    One weighted sum over the stacked arrays that adds `n / total *
    array` in client order, so equal inputs give bit-identical results,
    equal to adding the terms one by one.  Replies that are all the rows
    of one sealed stack (`seal_rows`), in order, are not stacked again:
    the sum reads that stack.
    """
    if len(arrays) == 0:
        raise MissingClient("no arrays to aggregate")
    if len(arrays) != len(counts):
        raise MissingClient(f"{len(arrays)} arrays for {len(counts)} registered clients")
    if any(n < 1 for n in counts):
        raise InvalidSpec("every client must hold at least one sample")
    if any(a.shape != arrays[0].shape for a in arrays):
        raise DimensionMismatch("client arrays differ in shape")
    weights = np.asarray(counts, dtype=np.float64) / float(sum(counts))
    terms = weights.reshape((-1,) + (1,) * arrays[0].ndim) * stack_rows(arrays)
    if arrays[0].size == 1:
        # numpy reduces a lone column pairwise; a running sum keeps the order.
        return np.add.accumulate(terms, axis=0)[-1]
    # Over axis 0 numpy adds row after row; starting from -0.0, the exact
    # additive identity, keeps the first term's sign of zero.
    return np.add.reduce(terms, axis=0, initial=-0.0)
