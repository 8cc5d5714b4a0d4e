"""The numpy decode kernel against a position-major reference, and
generation determinism across interpreters."""

import math
import os
import subprocess
import sys

import numpy as np

import moi
from moi import kernels
from moi.toy_lm import TENSOR_ORDER


def _reference_layer_norm(x, gain, bias):
    mean = x.mean()
    var = ((x - mean) ** 2).mean()
    return gain * ((x - mean) / math.sqrt(var + kernels.LN_EPS)) + bias


def _reference_decode_step(x, pos, t, n_heads, k_cache, v_cache):
    """The decode step over a position-major cache (layers, context, d),
    with attention as two einsums; `t` maps each tensor name to its
    float64 array."""
    layers, _, d = t["w_proj"].shape
    head_dim = d // n_heads
    scale = 1.0 / math.sqrt(head_dim)
    h = x + t["pos_emb"][pos]
    for layer in range(layers):
        normed = _reference_layer_norm(h, t["ln1_g"][layer], t["ln1_b"][layer])
        qkv = normed @ t["w_att"][layer] + t["b_att"][layer]
        k_cache[layer, pos] = qkv[d : 2 * d]
        v_cache[layer, pos] = qkv[2 * d :]
        q_h = qkv[:d].reshape(n_heads, head_dim)
        k_h = k_cache[layer, : pos + 1].reshape(pos + 1, n_heads, head_dim)
        v_h = v_cache[layer, : pos + 1].reshape(pos + 1, n_heads, head_dim)
        scores = np.einsum("hd,thd->ht", q_h, k_h) * scale
        scores -= scores.max(axis=1, keepdims=True)
        att = np.exp(scores)
        att /= att.sum(axis=1, keepdims=True)
        ctx = np.einsum("ht,thd->hd", att, v_h).reshape(d)
        h = h + ctx @ t["w_proj"][layer] + t["b_proj"][layer]
        normed = _reference_layer_norm(h, t["ln2_g"][layer], t["ln2_b"][layer])
        pre = normed @ t["w_fc"][layer] + t["b_fc"][layer]
        inner = 0.5 * pre * (1.0 + np.tanh(0.7978845608028654 * (pre + 0.044715 * pre * pre * pre)))
        h = h + inner @ t["w_out"][layer] + t["b_out"][layer]
    return t["tok_emb"] @ _reference_layer_norm(h, t["lnf_g"], t["lnf_b"])


def test_decode_step_matches_position_major_reference(small_model):
    cfg = small_model.config
    by_name = {name: small_model.params[name].astype(np.float64) for name in TENSOR_ORDER}
    head_dim = cfg.dim // cfg.heads
    ref_k, ref_v = np.zeros((2, cfg.layers, cfg.context, cfg.dim))
    state = small_model.new_state()
    assert state.k_cache.shape == (cfg.layers, cfg.heads, cfg.context, head_dim)
    rng = np.random.Generator(np.random.PCG64(0))
    for pos in range(cfg.context):
        x = rng.normal(0, 0.5, size=cfg.dim)
        want = _reference_decode_step(x, pos, by_name, cfg.heads, ref_k, ref_v)
        got = kernels.decode_step(x, pos, small_model.kernel_params, state.k_cache, state.v_cache)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"position {pos}")
    for ref, cache in ((ref_k, state.k_cache), (ref_v, state.v_cache)):
        head_major = ref.reshape(cfg.layers, cfg.context, cfg.heads, head_dim).transpose(0, 2, 1, 3)
        np.testing.assert_allclose(cache, head_major, rtol=0, atol=1e-12)


def test_layer_norm_is_bit_identical_to_mean_form():
    rng = np.random.Generator(np.random.PCG64(3))
    for d in (1, 7, 64, 257):
        x, gain, bias = rng.normal(0.0, 3.0, size=(3, d))
        np.testing.assert_array_equal(kernels._layer_norm_np(x, gain, bias), _reference_layer_norm(x, gain, bias))


def test_mix_rows_is_weighted_row_sum(small_model):
    rng = np.random.Generator(np.random.PCG64(1))
    matrix = small_model.params["tok_emb"]
    for size in (1, 3, 17):
        ids = np.sort(rng.choice(matrix.shape[0], size=size, replace=False)).astype(np.int64)
        w = rng.dirichlet(np.ones(size))
        want = sum(w[k] * matrix[ids[k]].astype(np.float64) for k in range(size))
        np.testing.assert_allclose(kernels.mix_rows(matrix, ids, w), want, rtol=1e-12, atol=1e-14)


def _child_env():
    """Environment for a child interpreter running this process's ``moi``.

    The child inherits this process's environment and gets the directory that
    holds this process's ``moi`` first on ``PYTHONPATH``, so it imports the same
    package whether ``moi`` is installed or run from ``src/``.
    """
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(moi.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_numpy_fallback_generation_matches_active_backend(small_model, tmp_path):
    """Full generation in a fresh interpreter gives this process's tokens."""
    from moi.mix_core import MixConfig
    from moi.pipeline import GenConfig, generate
    from moi.sampler import SamplerConfig
    from moi.toy_lm import save_weights

    path = tmp_path / "m.tlm"
    save_weights(small_model, path)
    cfg = GenConfig(
        mix=MixConfig("moi", 1.0),
        sampler=SamplerConfig(0.8, 0.9, seed=5),
        max_tokens=16,
    )
    here = generate(small_model, [1, 2, 3], cfg).tokens

    code = f"""
import moi
from moi.mix_core import MixConfig
from moi.pipeline import GenConfig, generate
from moi.sampler import SamplerConfig
model = moi.load_weights({str(path)!r})
cfg = GenConfig(mix=MixConfig("moi", 1.0), sampler=SamplerConfig(0.8, 0.9, seed=5), max_tokens=16)
print(moi.__file__)
print(moi.backend_name())
print(generate(model, [1, 2, 3], cfg).tokens)
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    child_file, child_backend, child_tokens = proc.stdout.strip().splitlines()
    assert child_file == moi.__file__
    assert child_backend == "numpy"
    assert child_tokens == str(here)
