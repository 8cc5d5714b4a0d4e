"""Equivalence of decode paths: every route to a generation gives the same
records, byte for byte.

The first path pinned here is a Prefill's reuse: a sequence of generations
from one Prefill, with settings that change along the way, must each equal
a fresh `generate` without a prefix, though they share its state and its
first distribution.  On drawn models, settings and budgets, a generation
from a prefix must equal a fresh one, and a written trace must read back to
the same records and replay with deviations of exactly 0.0.

The batched path: `kernels.decode_rows` must give every row the bytes
`kernels.decode_step` gives it alone, whatever rows share its batch, and a
grid trial whose generations `prefetch` decoded in batches must score,
write and record exactly what plain `generate` calls do.  A prefetched
result goes only to a `generate` with an equal config, and only once, and
a grid leaves none behind.  The drawn invariants also cover a request-sized
state against a full-context one, `greedy_decode` against a plain argmax
loop, and the moi weight bounds.  The greedy references and Prefills the
engine's batched rows make are checked against `conftest.plain_greedy` and
`conftest.plain_prompt_run`, which feed one token at a time.
"""

import collections
import math
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from moi import experiments, kernels, pipeline
from moi.embedding import EmbeddingTable, lookup, mix
from moi.experiments import GridSpec, TaskSpec, greedy_decode, greedy_recovery_score, run_grid, trial_seed
from moi.mix_core import MixConfig
from moi.pipeline import (
    GenConfig,
    Prefill,
    generate,
    prefetch,
    prefill,
    read_trace,
    replay_verify,
    write_trace,
)
from moi.sampler import SamplerConfig
from moi.toy_lm import Model, ModelConfig, init_random

from conftest import plain_greedy, plain_prompt_run
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
    """Context 12: a three-token prompt leaves room for 9 new tokens."""
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


class TestPrefillReuse:
    @settings(deadline=None, max_examples=60)
    @given(runs=generation_sequences(vocab=256, max_new=8), prompt=st.sampled_from((b"ab", b"the", b"q")))
    def test_generations_equal_fresh_ones(self, bench_model, runs, prompt):
        assert_each_equals_fresh(bench_model, list(prompt), runs)

    @settings(deadline=None, max_examples=40)
    @given(runs=generation_sequences(vocab=48, max_new=9))
    def test_generations_equal_fresh_ones_at_the_cap(self, model12, runs):
        # prompt 3 + 9 new tokens fill the context of 12
        assert_each_equals_fresh(model12, [1, 2, 3], runs)

    def test_records_do_not_share_the_cached_arrays(self, bench_model):
        prompts = [list(b"ab"), list(b"cd")]
        starts = [prefill(bench_model, p) for p in prompts]
        cfg = gen_cfg({"mode": "direct_mixture", "beta": 1.0, "temperature": 0.6, "top_p": 0.95}, 1, 6)
        for prefetched in (False, True):
            digests = []
            for _ in range(2):
                if prefetched:
                    prefetch(starts, cfg)
                result = generate(bench_model, prompts[0], cfg, prefix=starts[0])
                digests.append(records_sha256(result.records))
                for rec in result.records:
                    for arr in (rec.support, rec.probs, rec.weights):
                        arr[...] = 0
            assert digests[1] == digests[0] == records_sha256(generate(bench_model, prompts[0], cfg).records)

    def test_a_setting_whose_softmax_fails_caches_nothing(self, bench_model):
        # 1.5e308 / 0.5 overflows, so the softmax at T = 0.5 raises: the
        # first distribution cached at T = 1 must not serve T = 0.5
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
        assert list(odd._first) == [(1.0, 1.0)]


@st.composite
def drawn_configs(draw, min_context: int = 2):
    """A small random model configuration."""
    heads = draw(st.integers(1, 3))
    return ModelConfig(
        vocab=draw(st.integers(2, 40)),
        dim=heads * draw(st.integers(1, 6)),
        heads=heads,
        layers=draw(st.integers(1, 2)),
        context=draw(st.integers(min_context, 16)),
        init_seed=draw(st.integers(0, 2**32)),
    )


@st.composite
def drawn_requests(draw):
    """A small random model, a prompt, a config with a budget that fits
    the context, and 2-4 sampler seeds."""
    config = draw(drawn_configs())
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


@st.composite
def drawn_mixes(draw):
    """A float32 table with two opposite rows of size 2^30 to 2^40 and
    normal ones, and a support in drawn order that holds both big rows,
    with equal weights, and 1 to vocab - 2 others.  The big terms cancel
    exactly only where they meet in the sum, so a sum in another order
    rounds away bits that even the float32 narrowing keeps."""
    vocab, dim = draw(st.integers(3, 40)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    table = rng.normal(size=(vocab, dim))
    big, other = rng.choice(vocab, 2, replace=False)
    table[big] = rng.choice([-1.0, 1.0], dim) * 2.0 ** draw(st.integers(30, 40))
    table[other] = -table[big]
    rest = [i for i in rng.permutation(vocab) if i not in (big, other)]
    ids = rng.permutation([big, other, *rest[: draw(st.integers(1, vocab - 2))]])
    weights = rng.uniform(0.01, 1.0, ids.size)
    weights[ids == other] = weights[ids == big]
    return EmbeddingTable(table.astype(np.float32)).matrix64, ids, weights / weights.sum()


class TestDrawnInvariants:
    @settings(deadline=None, max_examples=150)
    @given(case=drawn_requests())
    def test_request_sized_state_and_greedy_prefix(self, case):
        model, prompt, cfgs = case
        budget = cfgs[0].max_tokens
        fed = prompt + generate(model, prompt, cfgs[0]).tokens[:-1]
        sized, full = model.new_state(len(prompt) + budget - 1), model.new_state()
        for token in fed:
            row = lookup(model.embedding_table, token)
            assert model.forward_step(sized, row).tobytes() == model.forward_step(full, row).tobytes()
        stops = cfgs[0].stop_tokens
        assert greedy_decode(model, prompt, budget, stops) == plain_greedy(model, prompt, budget, stops)
        # the last token is never fed, so a request's fork holds exactly L + n - 1 positions
        start, forks = prefill(model, prompt), []
        assert start.state.capacity == len(prompt)
        real_decode = pipeline._decode

        def spy(model, cfg, rows):
            forks.extend(row.state.capacity for row in rows)
            return real_decode(model, cfg, rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "_decode", spy)
            for prefix in (None, start):
                generate(model, prompt, cfgs[0], prefix=prefix)
        assert forks == [len(prompt) + budget - 1] * 2

    @settings(deadline=None, max_examples=150)
    @given(case=drawn_requests())
    def test_moi_records_meet_the_weight_bounds(self, case):
        model, prompt, cfgs = case
        m64 = model.embedding_table.matrix64
        for cfg in cfgs:
            cfg = replace(cfg, mix=replace(cfg.mix, mode="moi"))
            beta = cfg.mix.beta
            for rec in generate(model, prompt, cfg).records:
                if rec.mode != "moi":  # a stop step
                    continue
                at = int(np.flatnonzero(rec.support == rec.token)[0])
                h, p_y = rec.entropy, rec.probs[at]
                assert abs(math.fsum(rec.weights) - 1.0) <= 1e-12
                assert rec.weights[at] >= (beta + 1.0 - h) / (beta + 1.0)
                # criterion 5: |fed - e_y|_inf <= H (1 - p_y) / (beta + 1) * max_i |e_i - e_y|_inf
                gap = np.max(np.abs(mix(m64, rec.support, rec.weights) - m64[rec.token]))
                radius = np.max(np.abs(m64 - m64[rec.token]))
                assert gap <= h * (1.0 - p_y) / (beta + 1.0) * radius + 1e-6


    @settings(deadline=None, max_examples=200)
    @given(case=drawn_mixes())
    def test_mix_sums_in_ascending_id_order(self, case):
        matrix64, ids, weights = case
        order = ids.argsort()
        assert mix(matrix64, ids, weights).tobytes() == mix(matrix64, ids[order], weights[order]).tobytes()


def assert_rows_tie(model: Model, batch: int, positions: int, seed: int) -> None:
    """Feed `batch` rows of random inputs at positions 0 .. positions-1 through
    `decode_rows` three ways (all rows, the rows permuted, all rows but one)
    and through `decode_step` one row at a time: every row's logits and K/V
    must be the same bytes each way."""
    config, params = model.config, model.kernel_params
    rng = np.random.default_rng(seed)
    orders = {"all": np.arange(batch), "permuted": rng.permutation(batch)}
    if batch > 1:
        orders["dropped"] = np.delete(np.arange(batch), rng.integers(batch))
    shape = (config.layers, config.heads, positions, config.dim // config.heads)
    single = [(np.zeros(shape), np.zeros(shape)) for _ in range(batch)]
    caches = {name: (np.zeros((len(order), *shape)), np.zeros((len(order), *shape))) for name, order in orders.items()}
    for pos in range(positions):
        x = rng.normal(size=(batch, 1, config.dim))
        want = [kernels.decode_step(x[r, 0].copy(), pos, params, *single[r]) for r in range(batch)]
        for name, order in orders.items():
            k, v = caches[name]
            got = kernels.decode_rows(x[order], pos, params, k, v)
            assert got.shape == (len(order), config.vocab)
            for j, r in enumerate(order):
                assert got[j].tobytes() == want[r].tobytes(), (name, pos, r)
                assert k[j, :, :, pos].tobytes() == single[r][0][:, :, pos].tobytes(), (name, pos, r)
                assert v[j, :, :, pos].tobytes() == single[r][1][:, :, pos].tobytes(), (name, pos, r)
    for name, order in orders.items():
        for j, r in enumerate(order):
            assert caches[name][0][j].tobytes() == single[r][0].tobytes(), name
            assert caches[name][1][j].tobytes() == single[r][1].tobytes(), name


class TestDecodeRows:
    @settings(deadline=None, max_examples=40)
    @given(config=drawn_configs(), batch=st.sampled_from((1, 3, 8, 32)), seed=st.integers(0, 2**32))
    def test_rows_equal_decode_step_at_every_position(self, config, batch, seed):
        assert_rows_tie(init_random(config), batch, config.context, seed)

    def test_default_model_positions_0_to_255(self, default_model):
        assert_rows_tie(default_model, 3, default_model.config.context, 0)


class TestGreedyRows:
    """A trial's missed references run as lockstep rows (`pipeline._greedy_rows`,
    which `prefill` and `greedy_decode` are for one prompt): each equals a
    plain prompt run and argmax loop, byte for byte."""

    # a group of one, three prompts of two tokens, two of three
    PROMPTS = [(5,), (1, 2), (3, 4), (6, 7), (8, 9, 10), (11, 12, 13)]

    # without stops every reference of small_model runs to the budget; with
    # 27, 13 and 40 they end at steps 1, -, 1, 0, - and 2
    @pytest.mark.parametrize(
        "budget, stops, lengths",
        [(1, (), [1] * 6), (1, (27,), [1] * 6), (8, (), [8] * 6), (8, (27, 13, 40), [2, 8, 2, 1, 8, 3])],
    )
    def test_rows_equal_prefill_and_greedy_decode(self, small_model, monkeypatch, budget, stops, lengths):
        stops, batched, sizes = frozenset(stops), [], []
        real_rows = kernels.decode_rows

        def spy(*args):
            logits = real_rows(*args)
            sizes.append(len(logits))
            batched.extend((args[3], args[4], logits))
            return logits

        monkeypatch.setattr(kernels, "decode_rows", spy)
        out = pipeline._greedy_rows(small_model, self.PROMPTS, budget, stops)
        assert list(out) == self.PROMPTS and [len(ref) for ref, _ in out.values()] == lengths
        # a lone row, the group of one's or a group's last, runs decode_step
        assert sizes and min(sizes) >= 2
        for prompt, (reference, start) in out.items():
            state, logits = plain_prompt_run(small_model, prompt, len(prompt))
            assert reference == plain_greedy(small_model, prompt, budget, stops)
            assert start.prompt == prompt and start.state.length == start.state.capacity == len(prompt)
            for a, b in ((start.logits, logits), (start.state.k_cache, state.k_cache),
                         (start.state.v_cache, state.v_cache)):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        arrays = [a for _, start in out.values() for a in (start.logits, start.state.k_cache, start.state.v_cache)]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :] + batched)


@st.composite
def drawn_trials(draw):
    """A small random model; 3-7 prompts of 1-3 tokens, one of them
    repeated; a budget that fits the longest prompt, at the context limit
    half the time; stop tokens; and 1-3 grid settings with seeds."""
    config = draw(drawn_configs(min_context=4))
    prompt = st.lists(st.integers(0, config.vocab - 1), min_size=1, max_size=3).map(tuple)
    prompts = draw(st.lists(prompt, min_size=2, max_size=6))
    prompts.insert(draw(st.integers(0, len(prompts))), draw(st.sampled_from(prompts)))
    room = config.context - max(map(len, prompts))
    budget = draw(st.one_of(st.just(room), st.integers(1, room)))
    stops = draw(st.lists(st.integers(0, config.vocab - 1), max_size=2))
    cfgs = [
        gen_cfg({name: draw(st.sampled_from(CHOICES[name])) for name in FIELDS}, draw(st.integers(0, 2**32)), budget, stops)
        for _ in range(draw(st.integers(1, 3)))
    ]
    return init_random(config), prompts, budget, cfgs


def plain_score(model: Model, cfg: GenConfig, prompts, budget: int) -> tuple[float, list[str]]:
    """A trial scored by plain `generate` calls, with no prefix and no fill:
    the score and each prompt's records_sha256."""
    results = [generate(model, prompt, cfg) for prompt in prompts]
    refs = [plain_greedy(model, prompt, budget, cfg.stop_tokens) for prompt in prompts]
    score = sum(r.tokens == ref for r, ref in zip(results, refs)) / len(prompts)
    return score, [records_sha256(r.records) for r in results]


class TestFilledTrials:
    @settings(deadline=None, max_examples=80)
    @given(case=drawn_trials())
    def test_filled_trials_equal_plain_generate_calls(self, case):
        model, prompts, budget, cfgs = case
        batched = {n for n, count in collections.Counter(map(len, set(prompts))).items() if count > 1}
        cache, seen = {}, []
        real_generate, real_step = experiments.generate, kernels.decode_step
        forwards = []

        def spy_generate(model, prompt, cfg, prefix):
            forwards.clear()
            result = real_generate(model, prompt, cfg, prefix=prefix)
            seen.append((prompt, prefix, records_sha256(result.records), len(forwards)))
            return result

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "generate", spy_generate)
            mp.setattr(kernels, "decode_step", lambda *a: forwards.append(a[1]) or real_step(*a))
            for cfg in cfgs:
                seen.clear()
                score = greedy_recovery_score(model, cfg, prompts, budget, _ref_cache=cache)
                want_score, want_records = plain_score(model, cfg, prompts, budget)
                assert score == want_score
                # one generate per distinct prompt, in order of first listing
                want = dict(zip(prompts, want_records))
                assert [(prompt, digest) for prompt, _, digest, _ in seen] == list(want.items())
                for prompt, _, _, steps in seen:
                    # a batched prompt's generate takes its prefetched result
                    if len(prompt) in batched:
                        assert steps == 0, prompt
                assert not any(start._pending for _, start in cache.values())
        for (prompt, _, stops), (reference, start) in cache.items():
            assert reference == plain_greedy(model, prompt, budget, stops)
            state, logits = plain_prompt_run(model, prompt, len(prompt))
            assert start.logits.tobytes() == logits.tobytes()
            assert start.state.length == state.length
            assert start.state.k_cache.tobytes() == state.k_cache.tobytes()
            assert start.state.v_cache.tobytes() == state.v_cache.tobytes()

    @settings(deadline=None, max_examples=6)
    @given(case=drawn_trials())
    def test_grid_csv_equals_one_without_fills(self, tmp_path_factory, case):
        model, prompts, budget, cfgs = case
        key = cfgs[0]
        spec = GridSpec(
            task=TaskSpec(model=model, prompts=prompts, budget=budget, stop_tokens=key.stop_tokens),
            betas=(key.mix.beta,),
            top_ps=(key.sampler.top_p,),
            temperatures=(key.sampler.temperature,),
            modes=MODES,
            seeds=(0, 1),
        )
        out = tmp_path_factory.mktemp("grid")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "prefetch", lambda prefixes, cfg: None)
            run_grid(spec, out_path=out / "plain.csv", jobs=1)
        serial = run_grid(spec, out_path=out / "serial.csv", jobs=1)
        run_grid(spec, out_path=out / "parallel.csv", jobs=2)
        data = (out / "plain.csv").read_bytes()
        assert (out / "serial.csv").read_bytes() == data == (out / "parallel.csv").read_bytes()
        want = [
            plain_score(model, experiments._trial_config(spec.task, *config, trial_seed(seed, ci, ri)), prompts, budget)[0]
            for ci, config in enumerate(spec.configs())
            for ri, seed in enumerate(spec.seeds)
        ]
        assert [row.score for row in serial.rows] == want

    def test_generate_after_a_fill_runs_no_forward(self, bench_model, monkeypatch):
        prompts = [tuple(b"ab"), tuple(b"cd"), tuple(b"ef")]
        cfg = gen_cfg({"mode": "direct_mixture", "beta": 1.0, "temperature": 1.0, "top_p": 0.95}, 7, 12)
        fresh = [records_sha256(generate(bench_model, p, cfg).records) for p in prompts]
        starts = [prefill(bench_model, p) for p in prompts]
        states = [(s.state.k_cache.tobytes(), s.state.v_cache.tobytes()) for s in starts]
        calls = []
        real_rows = kernels.decode_rows
        monkeypatch.setattr(kernels, "decode_rows", lambda *a: calls.append(len(a[0])) or real_rows(*a))
        prefetch(starts + starts[:1], cfg)
        assert calls == [3] * 11
        monkeypatch.setattr(kernels, "decode_step", lambda *a: pytest.fail("generate ran a forward"))
        for prompt, start, state, digest in zip(prompts, starts, states, fresh):
            assert records_sha256(generate(bench_model, prompt, cfg, prefix=start).records) == digest
            assert (start.state.k_cache.tobytes(), start.state.v_cache.tobytes()) == state

    @pytest.mark.parametrize("n", [33, 65])
    def test_a_large_group_splits_into_balanced_calls(self, n, monkeypatch):
        model = init_random(ModelConfig(vocab=32, dim=16, heads=2, layers=1, context=8, init_seed=3))
        prompts = [(i // 32, i % 32) for i in range(n)]
        cfg = gen_cfg({"mode": "moi", "beta": 1.0, "temperature": 1.0, "top_p": 1.0}, 4, 5)
        fresh = [records_sha256(generate(model, p, cfg).records) for p in prompts]
        starts = [prefill(model, p) for p in prompts]
        calls = []
        real_rows = kernels.decode_rows
        monkeypatch.setattr(kernels, "decode_rows", lambda *a: calls.append(len(a[0])) or real_rows(*a))
        prefetch(starts, cfg)
        # no stop token: every row runs each of the 4 fed positions
        parts = -(-n // pipeline.FILL_ROWS)
        sizes = [len(range(i, n, parts)) for i in range(parts)]
        assert max(sizes) <= pipeline.FILL_ROWS and max(sizes) - min(sizes) <= 1
        assert calls == [size for size in sizes for _ in range(4)]
        monkeypatch.setattr(kernels, "decode_step", lambda *a: pytest.fail("generate ran a forward"))
        for prompt, start, digest in zip(prompts, starts, fresh):
            assert records_sha256(generate(model, prompt, cfg, prefix=start).records) == digest

    def test_rows_that_stop_keep_caches_of_their_own(self, small_model, monkeypatch):
        # the rows stop at steps 1, 1, 10 and 6: the batch buffer is restacked
        # from 4 rows to 2, then one row runs alone in its slot, then none is left
        prompts = [(1, 2), (3, 4), (5, 6), (7, 8)]
        cfg = gen_cfg({"mode": "moi", "beta": 1.0, "temperature": 1.0, "top_p": 0.95}, 0, 12, [13, 17])
        fresh = [generate(small_model, p, cfg) for p in prompts]
        assert [len(r.tokens) for r in fresh] == [2, 2, 11, 7]
        starts = [prefill(small_model, p) for p in prompts]
        states, rows = [], []
        real_decode, real_rows, real_step = pipeline._decode, kernels.decode_rows, kernels.decode_step

        def decode_spy(model, cfg, decoded):
            states.extend(row.state for row in decoded)
            return real_decode(model, cfg, decoded)

        def views(rows_in_call, k, v):
            # the live rows' states view the caches the forward writes; a
            # stopped row keeps no other buffer alive; no two states share memory
            live = [s for s in states if np.shares_memory(s.k_cache, k)]
            assert len(live) == rows_in_call and all(np.shares_memory(s.v_cache, v) for s in live)
            buffers = [s.k_cache.base for s in live]
            assert all(s.k_cache.base is None or any(s.k_cache.base is b for b in buffers) for s in states)
            for i, a in enumerate(states):
                for b in states[i + 1 :]:
                    assert not (np.shares_memory(a.k_cache, b.k_cache) or np.shares_memory(a.v_cache, b.v_cache))
            rows.append(rows_in_call)

        monkeypatch.setattr(pipeline, "_decode", decode_spy)
        monkeypatch.setattr(kernels, "decode_rows", lambda *a: views(len(a[0]), *a[3:]) or real_rows(*a))
        monkeypatch.setattr(kernels, "decode_step", lambda *a: views(1, *a[3:]) or real_step(*a))
        prefetch(starts, cfg)
        assert rows == [4] + [2] * 5 + [1] * 4
        for prompt, start, want in zip(prompts, starts, fresh):
            got = generate(small_model, prompt, cfg, prefix=start)
            assert got.tokens == want.tokens and records_sha256(got.records) == records_sha256(want.records)

    def test_a_trial_builds_one_stream(self, bench_model, monkeypatch):
        # 18 two-byte and 6 three-byte prompts: 2 prefetch calls and 24 generates share one config's draws
        prompts = [(97, i) for i in range(18)] + [(1, 2, i) for i in range(6)]
        seeds = []
        real_rng = pipeline.make_rng
        monkeypatch.setattr(pipeline, "make_rng", lambda seed: seeds.append(seed) or real_rng(seed))
        cfg = gen_cfg({"mode": "moi", "beta": 1.0, "temperature": 0.6, "top_p": 0.95}, 9, 5)
        greedy_recovery_score(bench_model, cfg, prompts, 5)
        assert seeds == [9]

    def test_a_group_of_one_is_not_filled(self, bench_model, monkeypatch):
        monkeypatch.setattr(kernels, "decode_rows", lambda *a: pytest.fail("a lone prompt length was batched"))
        cfg = gen_cfg({"mode": "moi", "beta": 1.0, "temperature": 0.6, "top_p": 0.95}, 0, 5)
        starts = [prefill(bench_model, b"ab"), prefill(bench_model, b"xyz")]
        prefetch(starts + starts[:1], cfg)
        assert [start._pending for start in starts] == [{}, {}]

    @pytest.mark.parametrize("field", ["seed", "beta", "max_tokens", "stop_tokens"])
    def test_a_pending_result_goes_once_to_an_equal_config(self, bench_model, field):
        prompts = [list(b"ab"), list(b"cd")]
        key = {"mode": "moi", "beta": 1.0, "temperature": 1.0, "top_p": 1.0}
        other = {
            "seed": gen_cfg(key, 6, 8),
            "beta": gen_cfg(dict(key, beta=2.0), 5, 8),
            "max_tokens": gen_cfg(key, 5, 7),
            "stop_tokens": gen_cfg(key, 5, 8, [0]),
        }[field]
        cfg = gen_cfg(key, 5, 8)
        starts = [prefill(bench_model, p) for p in prompts]
        prefetch(starts, cfg)
        [pending] = starts[0]._pending.values()
        # the other config decodes; then an equal config (another object) takes the result, once
        for asked, taken in ((other, False), (gen_cfg(key, 5, 8), True), (cfg, False)):
            result = generate(bench_model, prompts[0], asked, prefix=starts[0])
            assert (result is pending) == taken
            assert records_sha256(result.records) == records_sha256(generate(bench_model, prompts[0], asked).records)
        assert starts[0]._pending == {} and len(starts[1]._pending) == 1

    def test_a_grid_leaves_no_pending_result(self, bench_model, monkeypatch):
        # grid_short's shape: 18 two-byte and 6 three-byte prompts, budget 5
        prompts = [(97, 98 + i) for i in range(18)] + [(1, 2, i) for i in range(6)]
        spec = GridSpec(
            task=TaskSpec(model=bench_model, prompts=prompts, budget=5),
            betas=(0.01, 1e6),
            top_ps=(0.95, 1.0),
            temperatures=(0.6, 1.0),
            modes=("moi",),
            seeds=(0, 1),
        )
        caches, real_init = [], experiments._worker_init

        def keep_cache(task):
            # run_grid clears the worker state when it returns
            real_init(task)
            caches.append(experiments._WORKER["ref_cache"])

        monkeypatch.setattr(experiments, "_worker_init", keep_cache)
        run_grid(spec, jobs=1)
        [cache] = caches
        assert len(cache) == len(prompts)
        for _, start in cache.values():
            assert start._pending == {}
            assert sorted(start._first) == [(0.6, 0.95), (0.6, 1.0), (1.0, 0.95), (1.0, 1.0)]
