"""Temperature-scaled nucleus sampling with a portable, seedable stream.

The sampler is the conventional recipe and is reused unchanged by every
feedback mode: scale logits by 1/T, softmax, keep the smallest
descending-probability prefix whose cumulative mass reaches top_p,
renormalize, then draw by inverse CDF.  The random stream is a PCG64
generator: token k of a decode takes its k-th float64, so a trace is
reproducible from (logits, T, top_p, seed) alone (`GenConfig.draws`).
`truncate_rows` is the row form of `apply_temperature` + `top_p_truncate`
for a batched step's (B, V) logits; a lone row keeps the 1-D form, 19-21
against 37-40 us at B = 1, V = 256 (numpy 2.4 on x86-64 with AVX-512).
Both sort with numpy's default (SIMD) argsort and sort a row again stably
only where a tie is kept.  On T 0.6 rows of the engine's model a stable
argsort of 256 takes 10.4 us and the default one 2.7: `top_p_truncate`
takes 12.2 against 18.5 us, the row form 149-172 against 292-310 at B = 18.

These functions run once per decoded token and follow the hot-path rule
of the kernels module (ufunc methods, array methods such as ``ndarray.dot``
and ``take`` where they measure faster, in-place arithmetic, byte-identical
results).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mix_core import _SUM_TOL, check_probs


@dataclass(frozen=True)
class SamplerConfig:
    temperature: float = 0.6
    top_p: float = 0.95
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", check_seed(self.seed))
        if not (0.0 < self.temperature < math.inf):
            raise ValueError(f"temperature must be finite and positive, got {self.temperature}")
        if not (0.0 < self.top_p <= 1.0):
            raise ValueError(f"top_p must lie in (0, 1], got {self.top_p}")


class TruncatedDistribution(NamedTuple):
    """Nucleus-kept token set, as `top_p_truncate` returns it: int64 support
    ordered by descending probability (ties by ascending token id) and the
    float64 probabilities renormalized over it.  Not checked on
    construction; `top_p_truncate` checks the distribution it truncates."""

    ids: np.ndarray
    probs: np.ndarray


def check_seed(seed: int, name: str = "seed") -> int:
    """`seed` as an int (TypeError for a float); ValueError naming `name` if it is negative."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed}")
    return seed


def make_rng(seed: int) -> np.random.Generator:
    """Portable 64-bit stream: PCG64 seeded with `seed`."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def apply_temperature(logits: np.ndarray, temperature: float) -> np.ndarray:
    """softmax(logits / T) with max subtraction, in float64.  T must be
    finite: at T = inf the probabilities are uniform whatever the logits."""
    if not (0.0 < temperature < math.inf):
        raise ValueError(f"temperature must be finite and positive, got {temperature}")
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("logits must be a nonempty 1-D array")
    # max propagates NaN and +inf, min catches -inf
    top = np.maximum.reduce(z)
    if not (math.isfinite(top) and math.isfinite(np.minimum.reduce(z))):
        raise ValueError("logits contain non-finite entries")
    # max(z) / T is max(z / T): division by T > 0 and rounding are monotone
    e = z / temperature
    e -= top / temperature
    np.exp(e, out=e)
    e /= np.add.reduce(e)
    return e


def top_p_truncate(probs: np.ndarray, top_p: float) -> TruncatedDistribution:
    """Keep the minimal descending-prob prefix with cumulative mass >= top_p.

    Ties between equal probabilities break toward the smaller token id.
    The kept probabilities are renormalized.  top_p = 1.0 is no exception:
    the prefix ends where the float64 running sum first reaches 1.0, so a
    sharp distribution (low T) can lose a tail of tiny positive
    probabilities that rounding has already absorbed into the sum.
    """
    p = check_probs(probs)
    if not (0.0 < top_p <= 1.0):
        raise ValueError(f"top_p must lie in (0, 1], got {top_p}")

    order = np.negative(p).argsort()
    sorted_p = p[order]
    keep = min(int(np.add.accumulate(sorted_p).searchsorted(top_p, side="left")) + 1, p.size)
    # never keep zero-probability tail entries dragged in by float drift
    while keep > 1 and sorted_p[keep - 1] <= 0.0:
        keep -= 1
    head = sorted_p[: keep + 1]  # as in `truncate_rows`: only a kept tie needs the stable order
    if np.logical_or.reduce(head[1:] == head[:-1]):
        order = np.negative(p).argsort(kind="stable")

    kept = sorted_p[:keep]
    return TruncatedDistribution(order[:keep], kept / np.add.reduce(kept))


def truncate_rows(logits: np.ndarray, temperature: float, top_p: float) -> list[TruncatedDistribution]:
    """`top_p_truncate(apply_temperature(z, temperature), top_p)` for each
    row z of the (B, V) `logits`, byte for byte and with the same errors.
    The sort is numpy's default kind, which may put tied ids in any order;
    a row with a tie inside its kept prefix or across the prefix's edge is
    sorted again stably, so ties still break toward the smaller id.  Only
    the slicing and the renormalization run per row, since a padded
    pairwise sum would change each total's bytes; the checks do only when
    a row fails them (`_check_rows`)."""
    if not (0.0 < temperature < math.inf):
        raise ValueError(f"temperature must be finite and positive, got {temperature}")
    if not (0.0 < top_p <= 1.0):
        raise ValueError(f"top_p must lie in (0, 1], got {top_p}")
    # a shape other than (B, V), B and V >= 1, raises ValueError below
    z = np.asarray(logits, dtype=np.float64)
    top = np.maximum.reduce(z, axis=1, keepdims=True)
    if not (math.isfinite(np.maximum.reduce(top, axis=None)) and math.isfinite(np.minimum.reduce(z, axis=None))):
        raise ValueError("logits contain non-finite entries")
    e = z / temperature
    e -= top / temperature
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    _check_rows(e)
    b, v = e.shape
    order = np.negative(e).argsort(axis=1)
    # a flat take: row i's entries start at i * v
    sorted_p = e.take(order + np.arange(0, b * v, v)[:, None])
    keeps = np.add.reduce(np.add.accumulate(sorted_p, axis=1) < top_p, axis=1) + 1
    # the zero-tail trim: sorted_p is descending, so its positive entries
    # lead; a row that sums to 1 holds between 1 and v of them, so this is
    # max(min(keep, v, positive count), 1)
    keeps = np.minimum(keeps, np.add.reduce(e > 0.0, axis=1))
    # equal values sort to the same bytes in any order, so only the ids of a
    # tie inside the kept prefix or across its edge need the stable order;
    # no row keeps past the longest prefix
    head = sorted_p[:, : int(np.maximum.reduce(keeps)) + 1]
    tied = (head[:, 1:] == head[:, :-1]) & (np.arange(1, head.shape[1]) <= keeps[:, None])
    for i in np.flatnonzero(np.logical_or.reduce(tied, axis=1)).tolist():
        order[i] = np.negative(e[i]).argsort(kind="stable")
    dists = []
    for ids, row, keep in zip(order, sorted_p, keeps.tolist()):
        kept = row[:keep]
        dists.append(TruncatedDistribution(ids[:keep], kept / np.add.reduce(kept)))
    return dists


def _check_rows(probs: np.ndarray) -> None:
    """`check_probs` on each (B, V) row: one pass when all pass (the row sums
    are the 1-D sums' bytes), else row by row, so a bad row raises its text."""
    sums = np.add.reduce(probs, axis=1)
    # a NaN fails both comparisons
    if not (np.minimum.reduce(probs, axis=None) >= 0.0 and np.maximum.reduce(np.abs(sums - 1.0)) <= _SUM_TOL):
        for row in probs:
            check_probs(row)


def sample_position(dist: TruncatedDistribution, u: float) -> int:
    """Inverse-CDF draw; returns the *position* within the ordered support:
    the first whose cumulative probability exceeds the uniform `u` in [0, 1)."""
    pos = int(np.add.accumulate(dist.probs).searchsorted(u, side="right"))
    return min(pos, dist.ids.size - 1)  # u beyond the last cumulative sum by drift
