"""Mixing-weight math: entropy-scaled Dirichlet prior and its posterior mean.

The engine feeds a convex combination of token embeddings back into the
decoder instead of the sampled token's one-hot row.  The combination
weights come from a conjugate update: the next-token distribution ``p``
acts as a Dirichlet prior with total concentration equal to its
normalized entropy ``H``, and the sampled token contributes a single
pseudo-count of weight ``beta + 1 - H``.  The posterior mean

    w_i = (H * p_i + (beta + 1 - H) * [i == sampled]) / (beta + 1)

interpolates between the distribution (H -> 1) and the one-hot token
(H -> 0).  Two baseline weight rules live here as well: one-hot feedback
and the distribution used verbatim.

Each step has one implementation: the unchecked cores `entropy_of` and
`feedback_weights`, shared by the decode loop, trace replay and the
public functions, which validate their input, call them and return a
`MixingWeights`, whose constructor always checks the weights.

All probability math is float64.  Distributions are handled sparsely as
(token id, probability) pairs with implicit zeros; the entropy normalizer
``log V`` always uses the full vocabulary size, never the support size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MODES = ("standard", "direct_mixture", "moi")

_SUM_TOL = 1e-9
_RENORM_TOL = 1e-12


@dataclass(frozen=True)
class MixConfig:
    """Feedback rule selection: mode in {standard, direct_mixture, moi}."""

    mode: str = "moi"
    beta: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if not (self.beta > 0.0):
            raise ValueError(f"beta must be positive, got {self.beta}")


@dataclass(frozen=True)
class MixingWeights:
    """Sparse convex-combination weights over token ids.

    `ids` and `weights` are aligned 1-D arrays; weights are a probability
    vector (finite, non-negative, summing to 1 within 1e-9).
    """

    ids: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", np.asarray(self.ids, dtype=np.int64))
        object.__setattr__(self, "weights", check_probs(self.weights))
        if self.ids.shape != self.weights.shape:
            raise ValueError("ids and weights must be aligned 1-D arrays")

    def weight_of(self, token_id: int) -> float:
        """Weight assigned to `token_id` (0.0 when outside the support)."""
        hits = np.nonzero(self.ids == token_id)[0]
        return float(self.weights[hits[0]]) if hits.size else 0.0

    def to_dense(self, vocab_size: int) -> np.ndarray:
        dense = np.zeros(vocab_size, dtype=np.float64)
        dense[self.ids] = self.weights
        return dense


def check_probs(probs: np.ndarray) -> np.ndarray:
    """Validate a (possibly sparse-support) probability vector.

    Entries must be non-negative, finite, and sum to 1 within 1e-9.
    Returns the vector as a float64 array.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probability vector must be a nonempty 1-D array")
    # any NaN or +-inf entry makes the sum non-finite (as do entries so
    # large that the sum overflows, which no probability vector has)
    total = float(np.add.reduce(p))
    if not math.isfinite(total):
        raise ValueError("probability vector contains non-finite entries or overflows")
    if p.min() < 0.0:
        raise ValueError("probability vector contains negative entries")
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"probabilities sum to {total}, expected 1 within {_SUM_TOL}")
    return p


def normalized_entropy(probs: np.ndarray, vocab_size: int) -> float:
    """Shannon entropy of `probs` divided by log(vocab_size), clamped to [0, 1].

    `probs` holds the nonzero support of the distribution; implicit zeros
    contribute nothing (0 * log 0 := 0).  `vocab_size` is the full model
    vocabulary, not the support size, so truncating a distribution cannot
    push the normalizer around.
    """
    return entropy_of(check_probs(probs), vocab_size)


def entropy_of(p: np.ndarray, vocab_size: int) -> float:
    """normalized_entropy of an already validated float64 vector."""
    if vocab_size < 2:
        raise ValueError(f"vocab_size must be >= 2 for the log V normalizer, got {vocab_size}")
    nz = p[p > 0.0]
    h = -float(np.sum(nz * np.log(nz))) / math.log(vocab_size)
    return min(1.0, max(0.0, h))


def feedback_weights(mode: str, p: np.ndarray, pos: int, entropy: float, beta: float) -> np.ndarray:
    """Weights of feedback rule `mode` aligned with the validated float64
    distribution `p`, whose sampled token is at index `pos`: one-hot at
    `pos` (standard), `p` itself (direct_mixture), or the posterior mean
    for normalized entropy `entropy` (moi).  No checks.
    """
    if mode == "standard":
        w = np.zeros(p.shape[0], dtype=np.float64)
        w[pos] = 1.0
        return w
    if mode == "direct_mixture":
        return p.copy()
    denom = beta + 1.0
    w = p * (entropy / denom)
    w[pos] += (beta + 1.0 - entropy) / denom
    total = float(np.sum(w))
    if abs(total - 1.0) > _RENORM_TOL:
        w /= total
    return w


def posterior_mix_weights(
    ids: np.ndarray,
    probs: np.ndarray,
    sampled: int,
    beta: float,
    vocab_size: int,
    entropy: float | None = None,
) -> MixingWeights:
    """Posterior-mean mixing weights for the conjugate Dirichlet update.

    w_i = (H * p_i + (beta + 1 - H) * [i == sampled]) / (beta + 1), where H
    is the normalized entropy of the distribution: a prior alpha = H * p of
    total concentration H plus one pseudo-count beta + 1 - H on the sampled
    token.  The sum is 1 by construction; it is renormalized only if float
    drift exceeds 1e-12.  If `sampled` is missing from `ids` (it never is
    when sampling from this distribution) it is appended to the support.
    Callers that already hold the distribution's normalized entropy can
    pass it as `entropy` to skip recomputing it.
    """
    ids = np.asarray(ids, dtype=np.int64)
    p = check_probs(probs)
    if ids.shape != p.shape:
        raise ValueError("ids and probs must be aligned")
    sampled = int(sampled)
    if not (0 <= sampled < vocab_size):
        raise IndexError(f"sampled token {sampled} outside vocabulary of size {vocab_size}")
    if np.any(ids < 0) or np.any(ids >= vocab_size):
        raise IndexError("support ids outside vocabulary")
    if not (beta > 0.0):
        raise ValueError(f"beta must be positive, got {beta}")

    h = entropy_of(p, vocab_size) if entropy is None else float(entropy)
    if not (0.0 <= h <= 1.0):
        raise ValueError(f"entropy must lie in [0, 1], got {h}")
    hits = np.flatnonzero(ids == sampled)
    if hits.size:
        pos = int(hits[0])
    else:
        # a zero-probability entry for it at the end: the same float ops
        ids, p, pos = np.append(ids, sampled), np.append(p, 0.0), ids.size
    return MixingWeights(ids, feedback_weights("moi", p, pos, h, beta))


def direct_mix_weights(ids: np.ndarray, probs: np.ndarray) -> MixingWeights:
    """Baseline: the distribution itself as weights, no posterior update."""
    ids = np.asarray(ids, dtype=np.int64)
    p = check_probs(probs)
    if ids.shape != p.shape:
        raise ValueError("ids and weights must be aligned 1-D arrays")
    return MixingWeights(ids, feedback_weights("direct_mixture", p, 0, 0.0, 1.0))
