"""Embedding table storage and sparse mixture aggregation.

A mixed input is the convex combination of embedding rows under a set of
mixing weights.  Accumulation runs in float64 over the sparse support
only (never a dense vocabulary loop), iterating ids in ascending order so
the result is independent of how the support happened to be ordered; the
final vector is narrowed to the table's float32 storage dtype.  When the
support is the whole vocabulary (T = 1, top_p = 1), the rows in ascending
id order are the table itself: the weights are placed at their ids and
multiplied with the table directly, with no sort and no row copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels, mix_core
from .mix_core import MixingWeights


@dataclass(frozen=True)
class EmbeddingTable:
    """V x d matrix of float32 token embeddings and its float64 copy."""

    matrix: np.ndarray
    matrix64: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float32)
        if m.ndim != 2:
            raise ValueError("embedding matrix must be 2-D")
        if m.shape[0] < 2 or m.shape[1] < 1:
            raise ValueError(f"embedding matrix needs V >= 2 rows and d >= 1 columns, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("embedding matrix contains non-finite entries")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "matrix64", m.astype(np.float64))

    @property
    def vocab(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def lookup(table: EmbeddingTable, token_id: int) -> np.ndarray:
    """Row `token_id` of the table as a fresh float32 vector."""
    token_id = mix_core.token_id(token_id)
    if not (0 <= token_id < table.vocab):
        raise IndexError(f"token {token_id} outside vocabulary of size {table.vocab}")
    return table.matrix[token_id].copy()


def mix_embeddings(table: EmbeddingTable, weights: MixingWeights) -> np.ndarray:
    """Weighted sum of table rows over the weight support, as float32.

    A one-hot weight vector reproduces `lookup` bit-exactly.
    """
    ids = weights.ids
    if np.any(ids < 0) or np.any(ids >= table.vocab):
        raise IndexError(f"weight support outside vocabulary of size {table.vocab}")
    return mix(table.matrix64, ids, weights.weights)


def mix(matrix64: np.ndarray, ids: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """`weights` over rows `ids` of a table's `matrix64`, summed in ascending
    id order and narrowed to float32.  No checks (see `mix_embeddings`).

    A support of V ids is, for the engine, a permutation of 0..V-1: then
    `bincount` puts each weight at its id (one exact add to 0.0), which is
    `weights[argsort(ids)]`, and the gathered rows would be an identical
    copy of `matrix64`, so the product is the same in every byte.
    `bincount` rather than a scatter: it sums duplicated ids, so a
    hand-built V-id support that repeats some id still gets the weighted
    row sum."""
    vocab = matrix64.shape[0]
    if ids.size == vocab:
        return np.bincount(ids, weights, minlength=vocab).dot(matrix64).astype(np.float32)
    order = ids.argsort(kind="stable")
    return kernels.mix_rows(matrix64, ids[order], weights[order]).astype(np.float32)
