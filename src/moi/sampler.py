"""Temperature-scaled nucleus sampling with a portable, seedable stream.

The sampler is the conventional recipe and is reused unchanged by every
feedback mode: scale logits by 1/T, softmax, keep the smallest
descending-probability prefix whose cumulative mass reaches top_p,
renormalize, then draw by inverse CDF.  The random stream is a PCG64
generator; each token consumes exactly one float64 draw, so a trace is
reproducible from (logits, T, top_p, seed) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mix_core import built_valid, check_probs


@dataclass(frozen=True)
class SamplerConfig:
    temperature: float = 0.6
    top_p: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if not (self.temperature > 0.0):
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not (0.0 < self.top_p <= 1.0):
            raise ValueError(f"top_p must lie in (0, 1], got {self.top_p}")


@dataclass(frozen=True)
class TruncatedDistribution:
    """Nucleus-kept token set: support ordered by descending probability
    (ties by ascending token id), probabilities renormalized over it."""

    ids: np.ndarray
    probs: np.ndarray
    full_vocab: int

    def __post_init__(self):
        object.__setattr__(self, "ids", np.asarray(self.ids, dtype=np.int64))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))
        if self.ids.size == 0:
            raise ValueError("support must be nonempty")
        check_probs(self.probs)


def make_rng(seed: int) -> np.random.Generator:
    """Portable 64-bit stream: PCG64 seeded with `seed`."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def apply_temperature(logits: np.ndarray, temperature: float) -> np.ndarray:
    """softmax(logits / T) with max subtraction, in float64."""
    if not (temperature > 0.0):
        raise ValueError(f"temperature must be positive, got {temperature}")
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("logits must be a nonempty 1-D array")
    # max propagates NaN and +inf, min catches -inf
    if not (math.isfinite(z.max()) and math.isfinite(z.min())):
        raise ValueError("logits contain non-finite entries")
    z = z / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def top_p_truncate(probs: np.ndarray, top_p: float) -> TruncatedDistribution:
    """Keep the minimal descending-prob prefix with cumulative mass >= top_p.

    Ties between equal probabilities break toward the smaller token id.
    The kept probabilities are renormalized; with top_p = 1.0 the full
    support (every positive-probability token) is kept unchanged.
    """
    p = check_probs(probs)
    if not (0.0 < top_p <= 1.0):
        raise ValueError(f"top_p must lie in (0, 1], got {top_p}")

    order = np.argsort(-p, kind="stable")
    sorted_p = p[order]
    cum = np.cumsum(sorted_p)
    keep = int(np.searchsorted(cum, top_p, side="left")) + 1
    keep = min(keep, p.size)
    # never keep zero-probability tail entries dragged in by float drift
    while keep > 1 and sorted_p[keep - 1] <= 0.0:
        keep -= 1

    ids = order[:keep]
    kept = sorted_p[:keep]
    # a nonempty, renormalized prefix of a checked distribution: valid as built
    return built_valid(TruncatedDistribution, ids=ids, probs=kept / kept.sum(), full_vocab=p.size)


def sample_position(dist: TruncatedDistribution, rng: np.random.Generator) -> int:
    """Inverse-CDF draw; returns the *position* within the ordered support.

    Consumes exactly one float64 uniform from `rng`: the result is the
    first support position whose cumulative probability exceeds the draw.
    """
    u = rng.random()
    cum = np.cumsum(dist.probs)
    pos = int(np.searchsorted(cum, u, side="right"))
    if pos >= dist.ids.size:  # u landed beyond the last cumsum by drift
        pos = dist.ids.size - 1
    return pos


def sample_categorical(dist: TruncatedDistribution, rng: np.random.Generator) -> int:
    """Draw one token id by inverse CDF over the ordered support."""
    return int(dist.ids[sample_position(dist, rng)])
