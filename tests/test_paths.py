"""Equivalence of decode paths: every route to a generation gives the same
records, byte for byte.

The first path pinned here is the Prefill's tree of decoded positions: a
sequence of generations from one Prefill, with settings that change along
the way, must each equal a fresh `generate` without a prefix.  On drawn
models, settings and budgets, a generation from a prefix must equal a
fresh one, and a written trace must read back to the same records and
replay with deviations of exactly 0.0.
"""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from moi import pipeline
from moi.mix_core import MixConfig
from moi.pipeline import GenConfig, Prefill, generate, prefill, read_trace, replay_verify, write_trace
from moi.sampler import SamplerConfig
from moi.toy_lm import Model, ModelConfig, init_random

from test_pipeline import records_sha256

MODES = ("standard", "direct_mixture", "moi")
FIELDS = ("mode", "beta", "temperature", "top_p")
CHOICES = {
    "mode": MODES,
    "beta": (0.01, 1.0, 1e6),
    "temperature": (0.6, 1.0, 1.5),
    "top_p": (0.9, 1.0),
}


@pytest.fixture(scope="module")
def model12() -> Model:
    """Context 12: a few generations fill a Prefill's tree."""
    return init_random(ModelConfig(vocab=48, dim=32, heads=4, layers=2, context=12, init_seed=5))


def gen_cfg(key: dict, seed: int, max_tokens: int, stop_tokens=()) -> GenConfig:
    return GenConfig(
        mix=MixConfig(key["mode"], key["beta"]),
        sampler=SamplerConfig(temperature=key["temperature"], top_p=key["top_p"], seed=seed),
        max_tokens=max_tokens,
        stop_tokens=frozenset(stop_tokens),
    )


@st.composite
def generation_sequences(draw, vocab: int, max_new: int):
    """A starting key and 2-8 generations.  Before each one the key may
    change in exactly one field, so a change of beta alone, or of top_p
    alone, is as likely as any other."""
    key = {name: draw(st.sampled_from(CHOICES[name])) for name in FIELDS}
    runs = []
    for _ in range(draw(st.integers(2, 8))):
        change = draw(st.sampled_from((None, None) + FIELDS))
        if change is not None:
            key = dict(key, **{change: draw(st.sampled_from(CHOICES[change]))})
        seed = draw(st.integers(0, 7))
        max_tokens = draw(st.integers(1, max_new))
        stops = draw(st.lists(st.integers(0, vocab - 1), max_size=3))
        runs.append(gen_cfg(key, seed, max_tokens, stops))
    return runs


def assert_each_equals_fresh(model: Model, prompt: list[int], runs: list[GenConfig]) -> None:
    start = prefill(model, prompt)
    for cfg in runs:
        shared = generate(model, prompt, cfg, prefix=start)
        fresh = generate(model, prompt, cfg)
        assert shared.tokens == fresh.tokens
        assert records_sha256(shared.records) == records_sha256(fresh.records)


class TestPrefillTree:
    @settings(deadline=None, max_examples=60)
    @given(runs=generation_sequences(vocab=256, max_new=8), prompt=st.sampled_from((b"ab", b"the", b"q")))
    def test_generations_equal_fresh_ones(self, bench_model, runs, prompt):
        assert_each_equals_fresh(bench_model, list(prompt), runs)

    @settings(deadline=None, max_examples=40)
    @given(runs=generation_sequences(vocab=48, max_new=9))
    def test_generations_equal_fresh_ones_at_the_cap(self, model12, runs):
        # prompt 3 + 9 new tokens fill the context of 12
        assert_each_equals_fresh(model12, [1, 2, 3], runs)

    def test_tree_stops_at_the_context(self, model12):
        prompt = [1, 2, 3]
        start = prefill(model12, prompt)
        key = {"mode": "moi", "beta": 1.0, "temperature": 1.5, "top_p": 1.0}
        for seed in range(12):
            cfg = gen_cfg(key, seed, 9)
            shared = generate(model12, prompt, cfg, prefix=start)
            assert records_sha256(shared.records) == records_sha256(generate(model12, prompt, cfg).records)
        assert start._tree.size == model12.config.context

    def test_repeated_generation_runs_no_forward_and_no_sampler_softmax(self, bench_model, monkeypatch):
        prompt = list(b"ab")
        start = prefill(bench_model, prompt)
        key = {"mode": "moi", "beta": 1.0, "temperature": 0.6, "top_p": 0.95}
        cfg = gen_cfg(key, 3, 12)
        first = generate(bench_model, prompt, cfg, prefix=start)
        calls = []
        real_forward, real_softmax = Model.forward_step, pipeline.apply_temperature
        monkeypatch.setattr(Model, "forward_step", lambda m, s, x: calls.append("forward") or real_forward(m, s, x))
        monkeypatch.setattr(pipeline, "apply_temperature", lambda z, t: calls.append("softmax") or real_softmax(z, t))
        again = generate(bench_model, prompt, cfg, prefix=start)
        assert calls == []
        assert records_sha256(again.records) == records_sha256(first.records)
        # other settings replace the tree, and the forward runs again
        generate(bench_model, prompt, gen_cfg(dict(key, beta=2.0), 3, 12), prefix=start)
        assert calls.count("forward") == 11

    def test_records_do_not_share_the_tree_arrays(self, bench_model):
        prompt = list(b"ab")
        start = prefill(bench_model, prompt)
        cfg = gen_cfg({"mode": "direct_mixture", "beta": 1.0, "temperature": 0.6, "top_p": 0.95}, 1, 6)
        first = generate(bench_model, prompt, cfg, prefix=start)
        digest = records_sha256(first.records)
        for rec in first.records:
            for arr in (rec.support, rec.probs, rec.weights):
                arr[...] = 0
        assert records_sha256(generate(bench_model, prompt, cfg, prefix=start).records) == digest

    def test_a_setting_whose_root_fails_gets_no_stale_tree(self, bench_model):
        # 1.5e308 / 0.5 overflows, so the softmax at T = 0.5 raises; the tree
        # built at T = 1 must not then serve the next generation at T = 0.5
        logits = np.zeros(bench_model.config.vocab)
        logits[:2] = 1.5e308, -1.5e308
        start = prefill(bench_model, [1, 2])
        odd = Prefill(model=bench_model, prompt=start.prompt, state=start.state, logits=logits)
        key = {"mode": "moi", "beta": 1.0, "temperature": 1.0, "top_p": 1.0}
        with np.errstate(over="ignore", invalid="ignore"):
            assert generate(bench_model, [1, 2], gen_cfg(key, 0, 1), prefix=odd).tokens == [0]
            for _ in range(2):
                with pytest.raises(ValueError, match="non-finite"):
                    generate(bench_model, [1, 2], gen_cfg(dict(key, temperature=0.5), 0, 1), prefix=odd)


@st.composite
def drawn_requests(draw):
    """A small random model, a prompt, a config with a budget that fits
    the context, and 2-4 sampler seeds."""
    heads = draw(st.integers(1, 3))
    config = ModelConfig(
        vocab=draw(st.integers(2, 40)),
        dim=heads * draw(st.integers(1, 6)),
        heads=heads,
        layers=draw(st.integers(1, 2)),
        context=draw(st.integers(2, 16)),
        init_seed=draw(st.integers(0, 2**32)),
    )
    prompt = draw(st.lists(st.integers(0, config.vocab - 1), min_size=1, max_size=config.context - 1))
    key = {
        "mode": draw(st.sampled_from(MODES)),
        "beta": draw(st.floats(0.01, 100.0)),
        "temperature": draw(st.floats(0.05, 4.0)),
        "top_p": draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0))),
    }
    max_tokens = draw(st.integers(1, config.context - len(prompt)))
    stops = draw(st.lists(st.integers(0, config.vocab - 1), max_size=3))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=2, max_size=4))
    return init_random(config), prompt, [gen_cfg(key, seed, max_tokens, stops) for seed in seeds]


class TestDrawnModels:
    @settings(deadline=None, max_examples=300)
    @given(case=drawn_requests())
    def test_prefix_and_trace_paths_equal_a_fresh_generation(self, tmp_path_factory, case):
        model, prompt, cfgs = case
        start = prefill(model, prompt)
        trace = tmp_path_factory.getbasetemp() / "drawn.jsonl"
        for cfg in cfgs:
            fresh = generate(model, prompt, cfg)
            shared = generate(model, prompt, cfg, prefix=start)
            assert shared.tokens == fresh.tokens
            assert records_sha256(shared.records) == records_sha256(fresh.records)

            write_trace(fresh, trace)
            back = read_trace(trace)
            assert records_sha256(back) == records_sha256(fresh.records)
            report = replay_verify(back, cfg, vocab_size=model.config.vocab, tolerance=0.0)
            assert report.passed
            assert report.max_entropy_dev == 0.0 and report.max_weight_dev == 0.0
