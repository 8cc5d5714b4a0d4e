"""Byte-exact oracles for the per-token hot path.

The decode step, the sampler, the weight rules and the mix avoid numpy's
Python-level wrapper functions (see the kernels module).  Each function
below is the plain form they replaced, kept as an oracle: the engine's
result must equal it in every byte, so no rewrite of the hot path can move
a token, a record or a trace.
"""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moi import embedding, kernels, mix_core, sampler
from moi.mix_core import MixConfig
from moi.pipeline import GenConfig, generate
from moi.sampler import SamplerConfig, TruncatedDistribution
from moi.toy_lm import TENSOR_ORDER

# ---------------------------------------------------------------------------
# The oracles: the plain numpy forms
# ---------------------------------------------------------------------------


def oracle_layer_norm(x, gain, bias):
    d = x.shape[0]
    mean = np.add.reduce(x) / d
    diff = x - mean
    var = np.add.reduce(diff * diff) / d
    return gain * (diff / math.sqrt(var + kernels.LN_EPS)) + bias


def oracle_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x * x * x)))


def oracle_decode_step(x, pos, params, k_cache, v_cache):
    """`params` is the model's float64 tensors in TENSOR_ORDER."""
    (tok_emb, pos_emb, ln1_g, ln1_b, w_att, b_att, w_proj, b_proj,
     ln2_g, ln2_b, w_fc, b_fc, w_out, b_out, lnf_g, lnf_b) = params
    layers, n_heads, _, head_dim = k_cache.shape
    d = x.shape[0]
    scale = 1.0 / math.sqrt(head_dim)
    h = x + pos_emb[pos]
    for layer in range(layers):
        normed = oracle_layer_norm(h, ln1_g[layer], ln1_b[layer])
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
        normed = oracle_layer_norm(h, ln2_g[layer], ln2_b[layer])
        inner = oracle_gelu(normed @ w_fc[layer] + b_fc[layer])
        h = h + inner @ w_out[layer] + b_out[layer]
    return tok_emb @ oracle_layer_norm(h, lnf_g, lnf_b)


def oracle_apply_temperature(logits, temperature):
    z = np.asarray(logits, dtype=np.float64)
    z = z / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def oracle_top_p_truncate(p, top_p):
    order = np.argsort(-p, kind="stable")
    sorted_p = p[order]
    cum = np.cumsum(sorted_p)
    keep = int(np.searchsorted(cum, top_p, side="left")) + 1
    keep = min(keep, p.size)
    while keep > 1 and sorted_p[keep - 1] <= 0.0:
        keep -= 1
    kept = sorted_p[:keep]
    return TruncatedDistribution(order[:keep], kept / kept.sum())


def oracle_sample_position(dist, rng):
    u = rng.random()
    cum = np.cumsum(dist.probs)
    pos = int(np.searchsorted(cum, u, side="right"))
    if pos >= dist.ids.size:
        pos = dist.ids.size - 1
    return pos


def oracle_entropy_of(p, vocab_size):
    nz = p[p > 0.0]
    h = -float(np.sum(nz * np.log(nz))) / math.log(vocab_size)
    return min(1.0, max(0.0, h))


def oracle_feedback_weights(mode, p, pos, entropy, beta):
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
    if abs(total - 1.0) > 1e-12:
        w /= total
    return w


def oracle_mix(matrix32, ids, weights):
    """Gathers float32 rows and casts them, as the engine once did."""
    order = np.argsort(ids, kind="stable")
    return (weights[order] @ matrix32[ids[order]].astype(np.float64)).astype(np.float32)


def oracle_generate(model, prompt, cfg):
    """The decode loop of `pipeline.generate` (no stop tokens), built from
    the oracles: (token, entropy, support, probs, weights) per step."""
    params = tuple(model.params[name].astype(np.float64) for name in TENSOR_ORDER)
    state = model.new_state()
    table = model.embedding_table.matrix

    def feed(vec, pos):
        return oracle_decode_step(np.asarray(vec, dtype=np.float64), pos, params, state.k_cache, state.v_cache)

    for pos, token in enumerate(prompt):
        logits = feed(table[token], pos)
    rng = sampler.make_rng(cfg.sampler.seed)
    out = []
    for n in range(cfg.max_tokens):
        trunc = oracle_top_p_truncate(oracle_apply_temperature(logits, cfg.sampler.temperature), cfg.sampler.top_p)
        pos = oracle_sample_position(trunc, rng)
        token = int(trunc.ids[pos])
        h = oracle_entropy_of(trunc.probs, model.config.vocab)
        w = oracle_feedback_weights(cfg.mix.mode, trunc.probs, pos, h, cfg.mix.beta)
        out.append((token, h, trunc.ids, trunc.probs, w))
        fed = table[token] if cfg.mix.mode == "standard" else oracle_mix(table, trunc.ids, w)
        logits = feed(fed, len(prompt) + n)
    return out


@functools.cache
def random_table(vocab: int) -> embedding.EmbeddingTable:
    return embedding.EmbeddingTable(np.random.default_rng(vocab).normal(size=(vocab, 64)).astype(np.float32))


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# The kernel over every position
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", ["default_model", "small_model"])
def test_decode_step_is_byte_identical_at_every_position(which, request):
    model = request.getfixturevalue(which)
    cfg = model.config
    params = tuple(model.params[name].astype(np.float64) for name in TENSOR_ORDER)
    want_state, got_state = model.new_state(), model.new_state()
    rng = np.random.Generator(np.random.PCG64(11))
    for pos in range(cfg.context):
        # alternate table rows (the standard feed) and arbitrary vectors (a mix)
        x = model.embedding_table.matrix64[pos % cfg.vocab] if pos % 2 else rng.normal(0.0, 0.3, size=cfg.dim)
        want = oracle_decode_step(x.copy(), pos, params, want_state.k_cache, want_state.v_cache)
        got = kernels.decode_step(x, pos, model.kernel_params, got_state.k_cache, got_state.v_cache)
        assert same_bytes(got, want), f"{which} position {pos}"
    assert same_bytes(got_state.k_cache, want_state.k_cache)
    assert same_bytes(got_state.v_cache, want_state.v_cache)


def test_decode_step_leaves_its_input_alone(small_model):
    x = np.linspace(-1.0, 1.0, small_model.config.dim)
    before = x.copy()
    state = small_model.new_state()
    kernels.decode_step(x, 0, small_model.kernel_params, state.k_cache, state.v_cache)
    assert same_bytes(x, before)


def test_one_float64_table_copy(default_model):
    """The mix and the logit head read the same float64 copy of the table."""
    table = default_model.embedding_table
    assert table.matrix64.dtype == np.float64 and same_bytes(table.matrix64, table.matrix.astype(np.float64))
    assert default_model.kernel_params[0] is table.matrix64


# ---------------------------------------------------------------------------
# Sampler and weight rules over random logits
# ---------------------------------------------------------------------------

# a small pool makes ties and signed zeros common
TIE_VALUES = (0.0, -0.0, 1.0, -1.0, 2.5, -7.25, 30.0)
logit_vectors = st.lists(
    st.one_of(st.sampled_from(TIE_VALUES), st.floats(-60.0, 60.0, allow_nan=False)), min_size=1, max_size=300
)
temperatures = st.floats(0.05, 5.0)
top_ps = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))


@settings(deadline=None, max_examples=400)
@given(logits=logit_vectors, temperature=temperatures, top_p=top_ps, seed=st.integers(0, 2**32),
       beta=st.floats(0.01, 10.0))
def test_sampling_step_is_byte_identical(logits, temperature, top_p, seed, beta):
    logits = np.array(logits)
    probs = sampler.apply_temperature(logits, temperature)
    assert same_bytes(probs, oracle_apply_temperature(logits, temperature))

    got = sampler.top_p_truncate(probs, top_p)
    want = oracle_top_p_truncate(probs, top_p)
    assert same_bytes(got.ids, want.ids) and same_bytes(got.probs, want.probs)

    pos = sampler.sample_position(got, sampler.make_rng(seed).random())
    assert pos == oracle_sample_position(want, sampler.make_rng(seed))

    vocab = max(2, logits.size)
    h = mix_core.entropy_of(got.probs, vocab)
    assert np.float64(h).tobytes() == np.float64(oracle_entropy_of(want.probs, vocab)).tobytes()
    for mode in mix_core.MODES:
        assert same_bytes(mix_core.feedback_weights(mode, got.probs, pos, h, beta),
                          oracle_feedback_weights(mode, want.probs, pos, h, beta)), mode


@settings(deadline=None, max_examples=200)
@given(probs=st.lists(st.sampled_from((0.0, 0.0, 0.125, 0.25, 0.5, 1.0, 3.0)), min_size=1, max_size=64)
       .filter(lambda p: sum(p) > 0), top_p=top_ps)
def test_truncation_of_tied_distributions_is_byte_identical(probs, top_p):
    """Exact ties and zero tails, which a softmax seldom yields."""
    p = np.array(probs) / sum(probs)
    got, want = sampler.top_p_truncate(p, top_p), oracle_top_p_truncate(p, top_p)
    assert same_bytes(got.ids, want.ids) and same_bytes(got.probs, want.probs)


# the row form's draws: B rows of V logits, each row either normal at a drawn
# scale or drawn from a few integers, so that a row holds ties
row_batches = st.tuples(st.integers(1, 32), st.integers(1, 300), st.integers(0, 2**32 - 1), st.floats(0.1, 30.0))
row_temperatures = st.floats(0.05, 2.0)
row_top_ps = st.sampled_from((0.4, 0.95, 1.0))


def draw_rows(b, v, seed, scale):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, scale, (b, v))
    tied = rng.random(b) < 0.5
    logits[tied] = rng.integers(-3, 4, (int(tied.sum()), v))
    return logits, rng


@settings(deadline=None, max_examples=300)
@given(batch=row_batches, temperature=row_temperatures, top_p=row_top_ps)
def test_row_form_is_byte_identical_row_by_row(batch, temperature, top_p):
    logits, _ = draw_rows(*batch)
    got = sampler.truncate_rows(logits, temperature, top_p)
    assert len(got) == logits.shape[0]
    vocab = max(2, logits.shape[1])
    for row, dist in zip(logits, got):
        want = oracle_top_p_truncate(oracle_apply_temperature(row, temperature), top_p)
        assert same_bytes(dist.ids, want.ids) and same_bytes(dist.probs, want.probs)
        h, want_h = mix_core.entropy_of(dist.probs, vocab), oracle_entropy_of(want.probs, vocab)
        assert np.float64(h).tobytes() == np.float64(want_h).tobytes()


def assert_rows_match_the_oracle(logits, temperature, top_p):
    """The row form over `logits`, and the 1-D form on each row, against the oracle."""
    got = sampler.truncate_rows(logits, temperature, top_p)
    assert len(got) == logits.shape[0]
    for row, dist in zip(logits, got):
        want = oracle_top_p_truncate(oracle_apply_temperature(row, temperature), top_p)
        one = sampler.top_p_truncate(sampler.apply_temperature(row, temperature), top_p)
        for d in (dist, one):
            assert same_bytes(d.ids, want.ids) and same_bytes(d.probs, want.probs)
    return got


# rows whose kept ids depend on the tie order, so the default (non-stable)
# sort of the row form and of the 1-D form must be redone stably for them.  Each case is one row of
# 256 logits, rank r at -r / 20 but for the planted tie, shuffled into 64 rows
# of a batch: any non-stable sort, SIMD or not, puts a tied pair of a wide
# shuffled row in either order, so some rows need the re-sort.  A top_p of
# None cuts between the running sums at ranks keep - 2 and keep - 1.
TIE_V, TIE_ROWS = 256, 64


def tied_logits(case):
    z = -np.arange(TIE_V) / 20.0
    if case == "across_the_edge":
        z[40] = z[39]  # the prefix ends at rank 39: the lower id of the pair is kept
    elif case == "inside_the_prefix":
        z[4] = z[3]
    elif case == "all_equal":
        z[:] = 1.5  # every pair ties, inside the prefix and across its edge
    else:
        # ten probabilities of 0.1, whose running sum stays below 1.0, then a
        # tail that underflows to zero: the trim keeps the ten
        z[:10], z[10:] = 0.0, -1000.0
    return z


@pytest.mark.parametrize(("case", "top_p", "keep"), [
    ("across_the_edge", None, 40),
    ("inside_the_prefix", None, 40),
    ("all_equal", None, 128),
    ("zero_tail", 1.0, 10),
], ids=["across_the_edge", "inside_the_prefix", "all_equal", "zero_tail"])
def test_a_kept_tie_keeps_the_stable_order(case, top_p, keep):
    z = tied_logits(case)
    if top_p is None:
        cum = np.add.accumulate(oracle_apply_temperature(z, 1.0))
        top_p = float(cum[keep - 2] + cum[keep - 1]) / 2
    rng = np.random.default_rng(23)
    batch = np.array([z[rng.permutation(TIE_V)] for _ in range(TIE_ROWS)])
    got = assert_rows_match_the_oracle(batch, 1.0, top_p)
    for row, dist in zip(batch, got):
        assert dist.ids.tolist() == sorted(range(TIE_V), key=lambda i: (-row[i], i))[:keep]


def oracle_cut(row, temperature):
    """The oracle's descending probabilities of `row` at top_p 1.0, and the
    prefix length its running sum gives before the zero-tail trim."""
    sorted_p = -np.sort(-oracle_apply_temperature(row, temperature))
    return sorted_p, int(np.searchsorted(np.cumsum(sorted_p), 1.0, side="left")) + 1


def aimed_rows(seed, temperature):
    """Two rows of TIE_V logits for top_p 1.0, aimed at the tie window's edge
    and at the zero-tail trim.  Both start with 2-11 distinct logits and end
    in a tail 1000 T below them, which underflows to zero (exp underflows
    past a gap of 745 T).  In the first a tied pair follows, whose gap (about
    one ulp of 1.0 in probability) is searched on a grid until the running
    sum first reaches 1.0 at the pair's first entry: the pair straddles the
    kept prefix's edge and no other pair ties.  In the second the running sum
    of the positive entries stays below 1.0, so only the trim ends the
    prefix.  A head that misses its case is drawn again."""
    rng = np.random.default_rng(seed)
    gaps = np.arange(34.0, 37.5, 0.005)

    def hit(pair):
        while True:
            h = int(rng.integers(2, 12))
            ids = rng.permutation(TIE_V)
            z = np.full((gaps.size if pair else 1, TIE_V), -1000.0)
            z[:, ids[:h]] = head = rng.normal(0.0, 1.0, h)
            if pair:
                z[:, ids[h : h + 2]] = (head.max() - gaps)[:, None]
            for row in z * temperature:
                sorted_p, keep = oracle_cut(row, temperature)
                if not np.logical_and.reduce(sorted_p[: h - 1] > sorted_p[1:h]):
                    continue
                if (keep == h + 1 and sorted_p[h] == sorted_p[h + 1] > 0.0) if pair else keep > h:
                    return row

    return np.array([hit(True), hit(False)])


@settings(deadline=None, max_examples=200)
@given(batch=row_batches, decimals=st.integers(0, 1), temperature=st.floats(0.01, 1.5))
def test_row_form_of_rounded_logits_is_byte_identical(batch, decimals, temperature):
    """Rounding makes ties in every row, and a low T underflows the tail to
    zeros, so the tie check and the zero-tail trim both run at top_p 1.0.
    Each draw also runs `aimed_rows`, which hit the tie window's edge and the
    trim every time."""
    logits, _ = draw_rows(*batch)
    assert_rows_match_the_oracle(np.round(logits, decimals), temperature, 1.0)
    assert_rows_match_the_oracle(aimed_rows(batch[2], temperature), temperature, 1.0)


@settings(deadline=None, max_examples=100)
@given(batch=row_batches, temperature=row_temperatures, top_p=row_top_ps,
       bad=st.sampled_from((math.nan, math.inf, -math.inf)))
def test_row_form_rejects_a_non_finite_logit_as_the_1d_form_does(batch, temperature, top_p, bad):
    logits, rng = draw_rows(*batch)
    i, j = rng.integers(logits.shape[0]), rng.integers(logits.shape[1])
    logits[i, j] = bad
    with pytest.raises(ValueError) as one:
        sampler.apply_temperature(logits[i], temperature)
    with pytest.raises(ValueError, match=f"^{one.value}$"):
        sampler.truncate_rows(logits, temperature, top_p)


def softmax_rows(logits, temperature):
    return np.array([oracle_apply_temperature(row, temperature) for row in logits])


@settings(deadline=None, max_examples=200)
@given(batch=row_batches, temperature=row_temperatures)
def test_row_sums_are_the_1d_sums(batch, temperature):
    """The one-pass accept reads the (B, V) row sums: each must be the bytes
    `check_probs` sums alone, and a batch that passes checks no row alone."""
    e = softmax_rows(draw_rows(*batch)[0], temperature)
    sums = np.add.reduce(e, axis=1)
    assert sums.tobytes() == np.array([np.add.reduce(row) for row in e]).tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "check_probs", lambda p: pytest.fail("a passing batch was checked row by row"))
        sampler._check_rows(e)


@settings(deadline=None, max_examples=100)
@given(batch=row_batches, temperature=row_temperatures, top_p=row_top_ps,
       bad=st.sampled_from(("nan", "negative", "overflow", "unnormalized")))
def test_a_bad_row_raises_the_1d_message(batch, temperature, top_p, bad):
    logits, rng = draw_rows(*batch)
    e = softmax_rows(logits, temperature)
    i, j = rng.integers(e.shape[0]), rng.integers(e.shape[1])
    if bad == "nan":
        e[i, j] = math.nan
    elif bad == "negative":
        e[i, j] = -0.25
    elif bad == "overflow":
        e[i] = 1e308  # finite entries whose sum overflows (V >= 2)
    else:
        e[i] *= 1.0 + 1e-6
    with np.errstate(over="ignore"), pytest.raises(ValueError) as one:
        sampler.top_p_truncate(e[i], top_p)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=f"^{re.escape(str(one.value))}$"):
        sampler._check_rows(e)


@settings(deadline=None, max_examples=50)
@given(batch=row_batches, temperature=st.floats(0.05, 0.8), top_p=row_top_ps)
def test_row_form_rejects_an_overflowing_softmax_as_the_1d_form_does(batch, temperature, top_p):
    # finite logits: 1.5e308 / T overflows, so the row's softmax is NaN
    logits, rng = draw_rows(*batch)
    i = rng.integers(logits.shape[0])
    logits[i, rng.integers(logits.shape[1])] = 1.5e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError) as one:
            sampler.top_p_truncate(sampler.apply_temperature(logits[i], temperature), top_p)
        with pytest.raises(ValueError, match=f"^{re.escape(str(one.value))}$"):
            sampler.truncate_rows(logits, temperature, top_p)


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_mix_is_byte_identical(default_model, data):
    table = default_model.embedding_table
    n = data.draw(st.integers(1, table.vocab))
    ids = np.array(data.draw(st.permutations(range(table.vocab)))[:n], dtype=np.int64)
    raw = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))) + 1e-3
    weights = raw / raw.sum()
    assert same_bytes(embedding.mix(table.matrix64, ids, weights), oracle_mix(table.matrix, ids, weights))


@settings(deadline=None, max_examples=200)
@given(probs=st.lists(st.sampled_from((0.0, 0.0, 1e-300, 0.125, 0.5, 1.0, 3.0)), min_size=1, max_size=300)
       .filter(lambda p: sum(p) > 0), vocab=st.integers(2, 1000))
def test_entropy_with_zero_entries_is_byte_identical(probs, vocab):
    """Replayed and hand-made distributions may hold zeros, which the engine
    path (every kept probability positive) never passes."""
    p = np.array(probs) / sum(probs)
    got, want = mix_core.entropy_of(p, vocab), oracle_entropy_of(p, vocab)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_mix_over_all_rows_is_byte_identical(default_model, small_model, data):
    """Full support (T=1, top_p=1), as trace_audit feeds it, over tables of
    2, 48 (small_model), 256 (default_model) and 1,000 rows."""
    table = data.draw(st.sampled_from(
        [default_model.embedding_table, small_model.embedding_table, random_table(2), random_table(1000)]))
    ids = np.array(data.draw(st.permutations(range(table.vocab))), dtype=np.int64)
    # at most 256 drawn floats (more overrun hypothesis's buffer), repeated to V
    n = min(table.vocab, 256)
    raw = np.resize(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)), table.vocab) + 1e-3
    weights = raw / raw.sum()
    assert same_bytes(kernels.mix_rows(table.matrix64, ids, weights), weights @ table.matrix64[ids])
    assert same_bytes(embedding.mix(table.matrix64, ids, weights), oracle_mix(table.matrix, ids, weights))


# ---------------------------------------------------------------------------
# The whole loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", mix_core.MODES)
@pytest.mark.parametrize("temperature, top_p", [(0.6, 0.95), (1.0, 1.0)])
def test_generate_records_are_byte_identical_to_the_oracle_loop(default_model, mode, temperature, top_p):
    cfg = GenConfig(mix=MixConfig(mode, 1.0), sampler=SamplerConfig(temperature, top_p, seed=7), max_tokens=48)
    prompt = [(11 * j + 3) % 256 for j in range(16)]
    got = generate(default_model, prompt, cfg).records
    want = oracle_generate(default_model, prompt, cfg)
    assert len(got) == len(want)
    for rec, (token, h, ids, probs, w) in zip(got, want):
        assert rec.token == token and np.float64(rec.entropy).tobytes() == np.float64(h).tobytes()
        assert same_bytes(rec.support, ids) and same_bytes(rec.probs, probs) and same_bytes(rec.weights, w)
