"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

import moi
from moi.experiments import (
    GridSpec,
    ResultsTable,
    TaskSpec,
    TrialRow,
    best_of_n_gain,
    greedy_recovery_score,
    load_results,
    run_grid,
    throughput_bench,
)
from moi.mix_core import MixConfig, posterior_mix_weights
from moi.pipeline import GenConfig, generate, read_trace, replay_verify, write_trace
from moi.sampler import SamplerConfig
from moi.toy_lm import ModelConfig, init_random

from conftest import OneHotStubModel


def _report(number: int, description: str):
    print(f"criterion {number:2d} PASS  {description}")


def gen_cfg(mode="moi", beta=1.0, seed=0, max_tokens=16, temperature=0.6, top_p=0.95, **kw):
    return GenConfig(
        mix=MixConfig(mode, beta),
        sampler=SamplerConfig(temperature=temperature, top_p=top_p, seed=seed),
        max_tokens=max_tokens,
        **kw,
    )


# 24 short byte prompts used by the scoring criteria
PROMPT_POOL = [
    b"ab", b"the", b"12x", b"qz", b"now", b"hi", b"ok", b"yes", b"no", b"sum",
    b"fx", b"zz9", b"bc", b"or", b"90", b"ax", b"we", b"in", b"at", b"on",
    b"it", b"as", b"to", b"of",
]
PROMPTS = [tuple(p) for p in PROMPT_POOL]


def test_criterion_1_conjugacy_oracle():
    """posterior_mix_weights vs brute-force Dirichlet-multinomial mean.

    The 5 s bound is on the posterior_mix_weights calls alone: the scipy
    oracle and the random draws are not the code under test."""
    rng = np.random.Generator(np.random.PCG64(1234))
    elapsed = 0.0
    worst = 0.0
    for _ in range(10_000):
        vocab = int(rng.integers(2, 17))
        p = rng.dirichlet(np.ones(vocab))
        sampled = int(rng.integers(vocab))
        beta = float(rng.uniform(0.25, 8.0))

        ids = np.arange(vocab)
        t0 = time.perf_counter()
        mixed = posterior_mix_weights(ids, p, sampled, beta, vocab)
        elapsed += time.perf_counter() - t0
        ours = mixed.to_dense(vocab)

        h = min(1.0, max(0.0, float(stats.entropy(p)) / math.log(vocab)))
        alpha = h * p
        counts = np.zeros(vocab)
        counts[sampled] = beta + 1.0 - h
        brute = (alpha + counts) / (alpha.sum() + counts.sum())

        worst = max(worst, float(np.max(np.abs(ours - brute))))
    assert worst <= 1e-12, f"max abs deviation {worst}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(1, f"conjugacy oracle: 10,000 instances, max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_interpolation_limits():
    """H=0 collapses to an exact one-hot; uniform p gives (p+by)/(b+1)."""
    rng = np.random.Generator(np.random.PCG64(2))
    for _ in range(200):
        vocab = int(rng.integers(2, 17))
        beta = float(rng.uniform(0.25, 8.0))
        peak = int(rng.integers(vocab))
        one_hot = np.zeros(vocab)
        one_hot[peak] = 1.0
        w = posterior_mix_weights(np.arange(vocab), one_hot, peak, beta, vocab).to_dense(vocab)
        assert w[peak] == 1.0
        assert np.all(w[np.arange(vocab) != peak] == 0.0)

        uniform = np.full(vocab, 1.0 / vocab)
        sampled = int(rng.integers(vocab))
        got = posterior_mix_weights(np.arange(vocab), uniform, sampled, beta, vocab).to_dense(vocab)
        expected = uniform.copy()
        expected[sampled] += beta
        expected /= beta + 1.0
        assert np.max(np.abs(got - expected)) <= 1e-12
    _report(2, "H=0 exact one-hot; uniform-p equals (p+by)/(b+1) within 1e-12")


def test_criterion_3_beta_monotonicity():
    betas = [0.01, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 1e6]
    rng = np.random.Generator(np.random.PCG64(3))
    violations = 0
    for _ in range(1000):
        vocab = int(rng.integers(2, 17))
        p = rng.dirichlet(np.ones(vocab))
        sampled = int(rng.integers(vocab))
        w_sampled = [
            posterior_mix_weights(np.arange(vocab), p, sampled, b, vocab).weight_of(sampled)
            for b in betas
        ]
        violations += sum(1 for a, b in zip(w_sampled, w_sampled[1:]) if b < a)
    assert violations == 0
    _report(3, "w[sampled] non-decreasing over the beta ladder: 1000 cases, 0 violations")


def test_criterion_4_closed_loop_collapse():
    """One-hot post-temperature distributions make moi identical to standard."""
    stub = OneHotStubModel(vocab=64, dim=8, context=300)
    base = generate(stub, [0], gen_cfg(mode="standard", max_tokens=256)).tokens
    assert len(base) == 256
    for beta in (0.01, 1.0, 1e9):
        stub_b = OneHotStubModel(vocab=64, dim=8, context=300)
        got = generate(stub_b, [0], gen_cfg(mode="moi", beta=beta, max_tokens=256)).tokens
        assert got == base, f"divergence at beta={beta}"
    _report(4, "stub one-hot model: moi == standard for 256 steps at beta in {0.01, 1, 1e9}")


def test_criterion_5_deviation_bound():
    """Every MOI step: |h_t - e_y|_inf <= H(1-p_y)/(b+1) * max_i|e_i - e_y|_inf + 1e-6."""
    model = init_random(ModelConfig(init_seed=9))
    table = model.embedding_table
    m64 = table.matrix.astype(np.float64)
    radius = {}  # y -> max_i |e_i - e_y|_inf
    checked = 0
    for run in range(100):
        beta = (0.25, 1.0, 4.0)[run % 3]
        prompt = PROMPTS[run % len(PROMPTS)]
        cfg = gen_cfg(mode="moi", beta=beta, seed=run, max_tokens=16)
        result = generate(model, prompt, cfg)
        for rec in result.records:
            y = rec.token
            if y not in radius:
                radius[y] = float(np.max(np.abs(m64 - m64[y])))
            order = np.argsort(rec.support, kind="stable")
            mixed = moi.mix_embeddings(
                table,
                moi.MixingWeights(ids=rec.support[order], weights=rec.weights[order]),
            )
            gap = float(np.max(np.abs(mixed.astype(np.float64) - m64[y])))
            p_y = float(rec.probs[rec.support == y][0])
            bound = rec.entropy * (1.0 - p_y) / (beta + 1.0) * radius[y] + 1e-6
            assert gap <= bound, f"run {run} step {rec.step}: {gap} > {bound}"
            checked += 1
    _report(5, f"deviation bound held at every one of {checked} steps over 100 MOI generations")


def test_criterion_6_replay(tmp_path):
    model = init_random(ModelConfig(init_seed=9))
    for mode, beta in (("standard", 1.0), ("direct_mixture", 1.0), ("moi", 0.5), ("moi", 4.0)):
        cfg = gen_cfg(mode=mode, beta=beta, seed=17, max_tokens=24)
        result = generate(model, list(b"hello"), cfg)
        path = tmp_path / f"{mode}_{beta}.jsonl"
        write_trace(result, path)
        report = replay_verify(read_trace(path), cfg, vocab_size=256)
        assert report.passed and report.max_weight_dev <= 1e-9 and report.max_entropy_dev <= 1e-9

    cfg = gen_cfg(mode="moi", beta=0.5, seed=17, max_tokens=24)
    trace = read_trace(tmp_path / "moi_0.5.jsonl")
    trace[11].weights[0] += 1e-6
    broken = replay_verify(trace, cfg, vocab_size=256)
    assert not broken.passed
    assert broken.first_failed_step == 11
    _report(6, "engine traces replay at 1e-9; a 1e-6 weight perturbation fails naming its step")


def test_criterion_7_best_of_n():
    table = ResultsTable(
        rows=[
            TrialRow("moi", 1.0, 0.95, 0.6, 0, 0.2),
            TrialRow("moi", 2.0, 0.95, 0.6, 0, 0.5),
            TrialRow("moi", 3.0, 0.95, 0.6, 0, 0.8),
        ]
    )
    exact = dict(best_of_n_gain(table, "beta", 3))
    assert exact[1] == 0.0
    assert abs(exact[3] - 0.3) <= 1e-12
    gains = [exact[n] for n in (1, 2, 3)]
    assert all(a <= b + 1e-15 for a, b in zip(gains, gains[1:]))
    _report(7, f"best-of-N: gain(1)=0 exactly, gain(3)={exact[3]:.15f}, curve non-decreasing")


def test_criterion_8_grid_reproducibility(tmp_path):
    model = init_random(ModelConfig(init_seed=9))
    spec = GridSpec(
        task=TaskSpec(model=model, prompts=(tuple(b"ab"), tuple(b"the")), budget=8),
        modes=("moi",),
    )
    assert len(spec.configs()) == 6 * 4 * 3

    t0 = time.perf_counter()
    run_grid(spec, out_path=tmp_path / "a.csv")
    first = time.perf_counter() - t0
    run_grid(spec, out_path=tmp_path / "b.csv")
    elapsed = time.perf_counter() - t0

    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    rows = load_results(tmp_path / "a.csv").rows
    assert len(rows) == 360
    assert all(not math.isnan(r.score) for r in rows)
    assert elapsed < 600.0
    _report(8, f"default grid: 360 rows, bit-identical CSV twice, {first:.1f}s per run")

    # the beta column of this real table feeds an exact best-of-N curve
    curve = best_of_n_gain(load_results(tmp_path / "a.csv"), "beta", 6)
    gains = [g for _, g in curve]
    assert gains[0] == 0.0
    assert all(x <= y + 1e-15 for x, y in zip(gains, gains[1:]))


def test_criterion_9_throughput():
    model = init_random(ModelConfig())
    prompts = [tuple((s * 31 + i * 7) % 256 for i in range(16)) for s in range(32)]
    budget = 224
    std = gen_cfg(mode="standard", max_tokens=budget)
    std_vs_std = throughput_bench(
        model, std, std, prompts, budget, runs=5, variant_label="standard2"
    )
    assert abs(std_vs_std.output_overhead_pct) <= 2.0, std_vs_std.format_table()

    moi_cfg = gen_cfg(mode="moi", beta=1.0, max_tokens=budget)
    moi_vs_std = throughput_bench(model, std, moi_cfg, prompts, budget, runs=5)
    assert moi_vs_std.output_overhead_pct <= 15.0, moi_vs_std.format_table()
    _report(
        9,
        f"throughput: std-vs-std {std_vs_std.output_overhead_pct:+.2f}% (|x|<=2), "
        f"moi decode overhead {moi_vs_std.output_overhead_pct:+.2f}% (<=15)",
    )


def test_criterion_10_prompt_blending():
    from moi.prompt_blend import blend_prompts, interpolate_length

    rng = np.random.Generator(np.random.PCG64(10))
    m = rng.normal(size=(5, 4))
    assert np.max(np.abs(interpolate_length(m, 5) - m)) <= 1e-6

    two = rng.normal(size=(2, 4))
    out = interpolate_length(two, 3)
    assert np.max(np.abs(out[1] - (two[0] + two[1]) / 2.0)) <= 1e-6

    pool = [rng.normal(size=(int(rng.integers(1, 7)), 4)) for _ in range(6)]
    base = blend_prompts(pool)
    for seed in range(3):
        perm = [pool[i] for i in np.random.Generator(np.random.PCG64(seed)).permutation(6)]
        assert np.max(np.abs(blend_prompts(perm) - base)) <= 1e-6
    _report(10, "blending: identity at L=L_max, exact midpoint, permutation-invariant (1e-6)")


def test_criterion_11_directional_beta_effect():
    """Feedback anchored to the sampled token recovers greedy at least as
    often as feedback dominated by the distribution (T=0.6, top_p=0.95)."""
    model = init_random(ModelConfig(init_seed=9))
    budget = 5
    n_seeds = 300
    means = {}
    for beta in (0.01, 1e6):
        cache = {}
        scores = [
            greedy_recovery_score(
                model,
                gen_cfg(mode="moi", beta=beta, seed=seed, max_tokens=budget),
                PROMPTS,
                budget,
                _ref_cache=cache,
            )
            for seed in range(n_seeds)
        ]
        means[beta] = float(np.mean(scores))
    assert means[1e6] >= means[0.01], means
    _report(
        11,
        f"directional beta: mean score {means[1e6]:.4f} at beta=1e6 >= {means[0.01]:.4f} at beta=0.01 "
        f"({n_seeds} seeds)",
    )
