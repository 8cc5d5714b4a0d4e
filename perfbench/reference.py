"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark runs on a few vCPUs of a shared host.  Load from other
tenants comes in spells that slow every call by up to 2x, CPU time as much
as wall time, so a time in ms measured in one run and compared with
another mostly measures the host.  The untraced loop in run.py therefore
interleaves this kernel with the units of work, giving it about a tenth of
the loop, and reports each time also as a multiple of the kernel's mean
time in the same run.  Both slow down together in a spell; the ratio keeps
what the program changed.

The kernel belongs to the benchmark and never calls the program, so a
change to the program cannot move it.  It mimics the program's mix of
work: a Python loop over decode steps of a small two-layer transformer
(64 wide, 256-token vocabulary, attention over a growing KV cache),
softmax, a top-p cut by argsort and a mixed embedding fed back, which
takes about 15 ms on a 2-vCPU x86-64 VM.
"""

import time

import numpy as np

DIM, VOCAB, LAYERS, HEADS, STEPS = 64, 256, 2, 4, 64
_rng = np.random.default_rng(20250521)
_W_ATT = _rng.standard_normal((LAYERS, DIM, 3 * DIM)) * 0.1
_W_FC = _rng.standard_normal((LAYERS, DIM, 4 * DIM)) * 0.1
_W_PROJ = _rng.standard_normal((LAYERS, 4 * DIM, DIM)) * 0.1
_W_OUT = _rng.standard_normal((DIM, VOCAB)) * 0.1
_EMB = _rng.standard_normal((VOCAB, DIM)) * 0.1


def reference_kernel() -> list:
    """STEPS decode steps of the fixed model; returns the tokens chosen."""
    head = DIM // HEADS
    k_cache = np.zeros((LAYERS, STEPS, DIM))
    v_cache = np.zeros((LAYERS, STEPS, DIM))
    x = _EMB[1].copy()
    tokens = []
    for pos in range(STEPS):
        h = x
        for layer in range(LAYERS):
            normed = (h - h.mean()) / (h.std() + 1e-5)
            qkv = normed @ _W_ATT[layer]
            k_cache[layer, pos] = qkv[DIM : 2 * DIM]
            v_cache[layer, pos] = qkv[2 * DIM :]
            q = qkv[:DIM].reshape(HEADS, head)
            keys = k_cache[layer, : pos + 1].reshape(pos + 1, HEADS, head)
            scores = np.einsum("hd,thd->ht", q, keys) / np.sqrt(head)
            scores -= scores.max(axis=1, keepdims=True)
            att = np.exp(scores)
            att /= att.sum(axis=1, keepdims=True)
            values = v_cache[layer, : pos + 1].reshape(pos + 1, HEADS, head)
            h = h + np.einsum("ht,thd->hd", att, values).reshape(DIM)
            h = h + np.tanh(normed @ _W_FC[layer]) @ _W_PROJ[layer]
        logits = h @ _W_OUT
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        order = np.argsort(-probs, kind="stable")
        cumulative = np.cumsum(probs[order])
        keep = int(np.searchsorted(cumulative, 0.95)) + 1
        support = [int(t) for t in order[:keep]]
        token = support[(pos * 7) % keep]
        tokens.append(token)
        x = 0.5 * _EMB[token] + 0.5 * (probs[order[:keep]] / cumulative[keep - 1]) @ _EMB[order[:keep]]
    return tokens


def time_reference() -> float:
    """Seconds one run of the reference kernel takes."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0
