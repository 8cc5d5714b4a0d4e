"""Hot numeric kernels: one transformer decode step and sparse row mixing.

One numpy backend, float64 throughout; repeated runs are bit-identical.

Kernel conventions: the model's tensors arrive as one parameter record,
a tuple of float64 arrays in ``toy_lm.TENSOR_ORDER`` that the model
builds once.  Parameter stacks carry the layer index first (e.g.
``w_att`` is (layers, d, 3d)).  The KV caches are head-major,
(layers, heads, capacity, head_dim), and their shape is the one source
of the layer and head counts.  They are written in place at the current
position, so each head's cached keys and values are contiguous and
attention is two batched matmuls over the heads.  Attention softmax and
layer norm use max subtraction and a fixed 1e-5 epsilon.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-5
_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def _layer_norm_np(x, gain, bias):
    # np.add.reduce(x) / d is what x.mean() computes, without its wrapper
    d = x.shape[0]
    mean = np.add.reduce(x) / d
    diff = x - mean
    var = np.add.reduce(diff * diff) / d
    return gain * (diff / math.sqrt(var + LN_EPS)) + bias


def _gelu_np(x):
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x * x * x)))


def decode_step(x, pos, params, k_cache, v_cache):
    """Feed `x` at position `pos`; return next-token logits.

    `params` is the model's float64 tensors in `toy_lm.TENSOR_ORDER`.
    Writes this position's keys and values into the head-major caches
    `k_cache` and `v_cache` (layers, heads, capacity, head_dim), whose
    shape gives the layer and head counts.
    """
    (tok_emb, pos_emb, ln1_g, ln1_b, w_att, b_att, w_proj, b_proj,
     ln2_g, ln2_b, w_fc, b_fc, w_out, b_out, lnf_g, lnf_b) = params
    layers, n_heads, _, head_dim = k_cache.shape
    d = x.shape[0]
    scale = 1.0 / math.sqrt(head_dim)

    h = x + pos_emb[pos]
    for layer in range(layers):
        normed = _layer_norm_np(h, ln1_g[layer], ln1_b[layer])
        qkv = normed @ w_att[layer] + b_att[layer]
        q = qkv[:d].reshape(n_heads, head_dim, 1)
        k_cache[layer, :, pos] = qkv[d : 2 * d].reshape(n_heads, head_dim)
        v_cache[layer, :, pos] = qkv[2 * d :].reshape(n_heads, head_dim)

        scores = (k_cache[layer, :, : pos + 1] @ q)[:, :, 0] * scale
        scores -= scores.max(axis=1, keepdims=True)
        att = np.exp(scores)
        att /= att.sum(axis=1, keepdims=True)
        ctx = (att[:, None, :] @ v_cache[layer, :, : pos + 1]).reshape(d)

        h = h + ctx @ w_proj[layer] + b_proj[layer]
        normed = _layer_norm_np(h, ln2_g[layer], ln2_b[layer])
        inner = _gelu_np(normed @ w_fc[layer] + b_fc[layer])
        h = h + inner @ w_out[layer] + b_out[layer]

    final = _layer_norm_np(h, lnf_g, lnf_b)
    return tok_emb @ final


def mix_rows(matrix, ids, weights):
    """Convex combination of `matrix` rows, float64 accumulation."""
    return weights @ matrix[ids].astype(np.float64)


def backend_name() -> str:
    """The kernel backend; always "numpy"."""
    return "numpy"
