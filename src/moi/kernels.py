"""Hot numeric kernels: one transformer decode step and sparse row mixing.

One numpy backend, float64 throughout; repeated runs are bit-identical.

Kernel conventions: the model's tensors arrive as one parameter record
that the model builds once, ``(tok_emb, pos_emb, layers, lnf_g, lnf_b)``
of float64 arrays, where ``layers`` holds one tuple per layer of views
into the parameter stacks, in ``toy_lm.LAYER_ORDER``.  The KV caches are
head-major, (layers, heads, capacity, head_dim), and their shape is the
one source of the head count.  They are written in place at the current
position, so each head's cached keys and values are contiguous and
attention is two batched matmuls over the heads.  Attention softmax and
layer norm use max subtraction and a fixed 1e-5 epsilon.

Batched rows: `decode_rows` runs B rows at one position, x (B, 1, d) with
caches (B, layers, heads, capacity, head_dim) written in place, which
`pipeline._forward_rows`, its one caller, owns (slot i is row i's cache).
Each product is a stacked gemv, ``(B, 1, n) @ W``, and attention runs over
(B, heads, length, head_dim), so numpy calls for each row the gemv
`decode_step` calls: every row is byte-identical to its own `decode_step`,
whatever rows share the batch.  A gemm, ``(B, d) @ W``, is faster but
differs by up to 1.3e-14, as OpenBLAS picks its kernel by B.  A row costs
about 34 us at B = 10 against 84 for `decode_step`, but 128 at B = 1: a
lone row runs through `decode_step`.

Hot-path rule (here, in the sampler, the weight rules and the mix): on
vectors this short a step costs mostly call overhead, so use ufunc methods
(``np.add.reduce``, ``np.add.accumulate``, ``np.maximum.reduce``), array
methods (``ndarray.dot`` for the 1-D products, the same BLAS call as ``@``
with fewer layers; ``take`` to gather table rows) and in-place arithmetic
into as few buffers as the order of operations allows, not numpy's wrapper
functions, and keep every result byte-identical to the oracles in
``tests/test_hot_path.py``.  Keep an edit only if it also measures faster:
``take`` on a 1-D array and viewing the attention scores by ``reshape``
measured no faster than indexing (numpy 2.4, OpenBLAS 0.3.31, x86-64).
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-5
_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def _layer_norm_np(x, gain, bias):
    # np.add.reduce(x) / d is what x.mean() computes, without its wrapper;
    # the result is formed in the one buffer x - mean
    d = x.shape[0]
    out = x - np.add.reduce(x) / d
    out /= math.sqrt(np.add.reduce(out * out) / d + LN_EPS)
    out *= gain
    out += bias
    return out


def _gelu_np(x):
    # 0.5 * x * (1 + tanh(c * (x + 0.044715 * x * x * x))) in that order, in
    # x and one buffer t (x + a is a + x and c * a is a * c, bit for bit)
    t = x * 0.044715
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    t += 1.0
    x *= 0.5
    x *= t
    return x


def decode_step(x, pos, params, k_cache, v_cache):
    """Feed `x` at position `pos`; return next-token logits.

    `params` is the model's parameter record (see the module docstring).
    Writes this position's keys and values into the head-major caches
    `k_cache` and `v_cache` (layers, heads, capacity, head_dim), whose
    shape gives the head count.
    """
    tok_emb, pos_emb, layers, lnf_g, lnf_b = params
    _, n_heads, _, head_dim = k_cache.shape
    d = x.shape[0]
    length = pos + 1
    scale = 1.0 / math.sqrt(head_dim)

    h = x + pos_emb[pos]
    for layer, k, v in zip(layers, k_cache, v_cache):
        ln1_g, ln1_b, w_att, b_att, w_proj, b_proj, ln2_g, ln2_b, w_fc, b_fc, w_out, b_out = layer
        qkv = _layer_norm_np(h, ln1_g, ln1_b).dot(w_att)
        qkv += b_att
        qkv = qkv.reshape(3, n_heads, head_dim, 1)
        k[:, pos] = qkv[1, :, :, 0]
        v[:, pos] = qkv[2, :, :, 0]

        att = (k[:, :length] @ qkv[0])[:, :, 0]
        att *= scale
        att -= np.maximum.reduce(att, axis=1, keepdims=True)
        np.exp(att, out=att)
        att /= np.add.reduce(att, axis=1, keepdims=True)
        # h + ctx @ W + b is (h + ctx @ W) + b: two in-place adds in that order
        h += (att[:, None, :] @ v[:, :length]).reshape(d).dot(w_proj)
        h += b_proj
        pre = _layer_norm_np(h, ln2_g, ln2_b).dot(w_fc)
        pre += b_fc
        h += _gelu_np(pre).dot(w_out)
        h += b_out

    return tok_emb.dot(_layer_norm_np(h, lnf_g, lnf_b))


def _layer_norm_rows(x, gain, bias):
    # _layer_norm_np along the last axis, row by row in the same order
    d = x.shape[-1]
    out = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    out /= np.sqrt(np.add.reduce(out * out, axis=-1, keepdims=True) / d + LN_EPS)
    out *= gain
    out += bias
    return out


def decode_rows(x, pos, params, k_cache, v_cache):
    """`decode_step` for B rows at `pos`, byte for byte: x is (B, 1, d), the
    caches (B, layers, heads, capacity, head_dim); returns (B, vocab) logits."""
    tok_emb, pos_emb, layers, lnf_g, lnf_b = params
    b, _, n_heads, _, head_dim = k_cache.shape
    length = pos + 1
    scale = 1.0 / math.sqrt(head_dim)

    h = x + pos_emb[pos]
    for layer, k, v in zip(layers, k_cache.swapaxes(0, 1), v_cache.swapaxes(0, 1)):
        ln1_g, ln1_b, w_att, b_att, w_proj, b_proj, ln2_g, ln2_b, w_fc, b_fc, w_out, b_out = layer
        qkv = _layer_norm_rows(h, ln1_g, ln1_b) @ w_att
        qkv += b_att
        qkv = qkv.reshape(b, 3, n_heads, head_dim, 1)
        k[:, :, pos] = qkv[:, 1, :, :, 0]
        v[:, :, pos] = qkv[:, 2, :, :, 0]

        att = (k[:, :, :length] @ qkv[:, 0])[..., 0]
        att *= scale
        att -= np.maximum.reduce(att, axis=2, keepdims=True)
        np.exp(att, out=att)
        att /= np.add.reduce(att, axis=2, keepdims=True)
        h += (att[:, :, None, :] @ v[:, :, :length]).reshape(b, 1, -1) @ w_proj
        h += b_proj
        pre = _layer_norm_rows(h, ln2_g, ln2_b) @ w_fc
        pre += b_fc
        h += _gelu_np(pre) @ w_out
        h += b_out

    return (tok_emb @ _layer_norm_rows(h, lnf_g, lnf_b).reshape(b, -1, 1)).reshape(b, -1)


def mix_rows(matrix, ids, weights):
    """Convex combination of the float64 `matrix` rows `ids`."""
    return weights.dot(matrix.take(ids, axis=0))


def backend_name() -> str:
    """The kernel backend; always "numpy"."""
    return "numpy"
