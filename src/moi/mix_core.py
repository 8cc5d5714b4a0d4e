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


def built_valid(cls, **fields):
    """An instance of the frozen dataclass `cls` without its __post_init__
    checks, for values the caller has just validated or built valid by
    construction (so each path validates once)."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class PseudoCounts:
    """Single fractional observation on the sampled token.

    `total` always equals `count`: the update never holds more than one
    nonzero entry.
    """

    token_id: int
    count: float

    @property
    def total(self) -> float:
        return self.count


@dataclass(frozen=True)
class ConcentrationVector:
    """Sparse Dirichlet concentration over token ids; entries sum to H."""

    ids: np.ndarray
    alpha: np.ndarray


@dataclass(frozen=True)
class MixingWeights:
    """Sparse convex-combination weights over token ids.

    `ids` and `weights` are aligned 1-D arrays; weights are non-negative
    and sum to 1 within 1e-9.
    """

    ids: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", np.asarray(self.ids, dtype=np.int64))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        if self.ids.shape != self.weights.shape or self.ids.ndim != 1:
            raise ValueError("ids and weights must be aligned 1-D arrays")
        if self.ids.size == 0:
            raise ValueError("weights must have nonempty support")
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be non-negative")
        total = float(np.sum(self.weights))
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"weights sum to {total}, expected 1 within {_SUM_TOL}")

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
    return _entropy(check_probs(probs), vocab_size)


def _entropy(p: np.ndarray, vocab_size: int) -> float:
    """normalized_entropy of an already validated float64 vector."""
    if vocab_size < 2:
        raise ValueError(f"vocab_size must be >= 2 for the log V normalizer, got {vocab_size}")
    nz = p[p > 0.0]
    h = -float(np.sum(nz * np.log(nz))) / math.log(vocab_size)
    return min(1.0, max(0.0, h))


def dirichlet_prior(ids: np.ndarray, probs: np.ndarray, entropy: float) -> ConcentrationVector:
    """Concentration vector alpha = H * p over the support `ids`.

    Total concentration equals `entropy`: it grows with uncertainty and
    vanishes when the distribution is confident.
    """
    p = check_probs(probs)
    if not (0.0 <= entropy <= 1.0):
        raise ValueError(f"entropy must lie in [0, 1], got {entropy}")
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape != p.shape:
        raise ValueError("ids and probs must be aligned")
    return ConcentrationVector(ids=ids, alpha=entropy * p)


def pseudo_counts(sampled: int, entropy: float, beta: float) -> PseudoCounts:
    """Observation term: count beta + 1 - H on the sampled token only."""
    if not (beta > 0.0):
        raise ValueError(f"beta must be positive, got {beta}")
    if not (0.0 <= entropy <= 1.0):
        raise ValueError(f"entropy must lie in [0, 1], got {entropy}")
    return PseudoCounts(token_id=int(sampled), count=beta + 1.0 - entropy)


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
    is the normalized entropy of the distribution.  The sum is 1 by
    construction; it is renormalized only if float drift exceeds 1e-12.
    If `sampled` is missing from `ids` (it never is when sampling from
    this distribution) it is appended to the support.  Callers that
    already hold the distribution's normalized entropy can pass it as
    `entropy` to skip recomputing it.
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

    h = _entropy(p, vocab_size) if entropy is None else float(entropy)
    if not (0.0 <= h <= 1.0):
        raise ValueError(f"entropy must lie in [0, 1], got {h}")
    denom = beta + 1.0
    hits = np.nonzero(ids == sampled)[0]
    if hits.size:
        out_ids = ids
        w = p * (h / denom)
        w[hits[0]] += (beta + 1.0 - h) / denom
    else:
        out_ids = np.concatenate([ids, [sampled]])
        w = np.concatenate([p * (h / denom), [(beta + 1.0 - h) / denom]])
    total = float(np.sum(w))
    if abs(total - 1.0) > _RENORM_TOL:
        w = w / total
    # non-negative (h <= 1 < beta + 1) and summing to 1: valid as built
    return built_valid(MixingWeights, ids=out_ids, weights=w)


def direct_mix_weights(ids: np.ndarray, probs: np.ndarray) -> MixingWeights:
    """Baseline: the distribution itself as weights, no posterior update."""
    ids = np.asarray(ids, dtype=np.int64)
    p = check_probs(probs)
    if ids.shape != p.shape:
        raise ValueError("ids and weights must be aligned 1-D arrays")
    return built_valid(MixingWeights, ids=ids, weights=p)


def one_hot_weights(sampled: int, vocab_size: int) -> MixingWeights:
    """Baseline: all weight on the sampled token (conventional feedback)."""
    sampled = int(sampled)
    if not (0 <= sampled < vocab_size):
        raise IndexError(f"token {sampled} outside vocabulary of size {vocab_size}")
    return built_valid(MixingWeights, ids=np.array([sampled], dtype=np.int64), weights=np.array([1.0]))
