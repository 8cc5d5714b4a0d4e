"""Generation loop, step records, trace files, and replay verification."""

import ast
import copy
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from moi import kernels, mix_core, pipeline
from moi.experiments import (
    GridSpec,
    ResultsTable,
    TaskSpec,
    TrialRow,
    best_of_n_gain,
    greedy_decode,
    greedy_recovery_score,
    run_grid,
    throughput_bench,
)
from moi.mix_core import MODES, MixConfig, check_probs, entropy_of, feedback_weights, posterior_mix_weights
from moi.pipeline import (
    GenConfig,
    GenerationResult,
    StepRecord,
    TraceFormatError,
    check_prompt,
    generate,
    prefill,
    read_trace,
    replay_verify,
    write_trace,
)
from moi.sampler import SamplerConfig
from moi.toy_lm import Model, ModelConfig, init_random


def gen_cfg(mode="moi", beta=1.0, seed=0, max_tokens=16, **kw) -> GenConfig:
    return GenConfig(
        mix=MixConfig(mode, beta),
        sampler=SamplerConfig(temperature=0.6, top_p=0.95, seed=seed),
        max_tokens=max_tokens,
        **kw,
    )


class TestGenerate:
    def test_deterministic(self, bench_model):
        a = generate(bench_model, list(b"abc"), gen_cfg(seed=4))
        b = generate(bench_model, list(b"abc"), gen_cfg(seed=4))
        assert a.tokens == b.tokens
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_array_equal(ra.weights, rb.weights)
            assert ra.entropy == rb.entropy

    def test_first_token_identical_across_modes(self, bench_model):
        tokens = {
            mode: generate(bench_model, list(b"xy"), gen_cfg(mode=mode, seed=11)).tokens[0]
            for mode in ("standard", "direct_mixture", "moi")
        }
        assert len(set(tokens.values())) == 1

    def test_counts_match_records(self, bench_model):
        res = generate(bench_model, list(b"abc"), gen_cfg(max_tokens=9))
        assert res.generated_tokens == len(res.records) == len(res.tokens) == 9
        assert res.prompt_tokens == 3

    def test_records_are_valid(self, bench_model):
        res = generate(bench_model, list(b"ab"), gen_cfg(mode="moi", seed=2, max_tokens=12))
        for rec in res.records:
            assert 0.0 <= rec.entropy <= 1.0
            check_probs(rec.probs)
            assert rec.weights.shape == rec.support.shape
            assert np.all(rec.weights >= 0.0)
            assert rec.weights.sum() == pytest.approx(1.0, abs=1e-9)
            assert rec.token in rec.support

    @pytest.mark.parametrize("mode", ["standard", "direct_mixture", "moi"])
    def test_record_arrays_share_no_memory(self, bench_model, mode):
        # records keep the sampler's arrays uncopied: each must be its own,
        # also across two generations that take their first from one Prefill
        cfg = gen_cfg(mode=mode, seed=3, max_tokens=12)
        start = prefill(bench_model, list(b"ab"))
        results = [generate(bench_model, list(b"ab"), cfg, prefix=p) for p in (None, start, start)]
        arrays = [a for res in results for rec in res.records for a in (rec.support, rec.probs, rec.weights)]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])

    def test_stop_token_emitted_recorded_not_fed(self, stub_model):
        stop = stub_model.token_at(2)
        cfg = gen_cfg(mode="standard", max_tokens=50, stop_tokens=frozenset({stop}))
        res = generate(stub_model, [0], cfg)
        assert res.tokens[-1] == stop
        assert len(res.tokens) == 3
        assert res.records[-1].token == stop

    def test_stop_step_records_standard_one_hot(self, bench_model):
        stop = generate(bench_model, list(b"ab"), gen_cfg(mode="moi", seed=5, max_tokens=8)).tokens[4]
        res = generate(bench_model, list(b"ab"), gen_cfg(mode="moi", seed=5, max_tokens=8, stop_tokens={stop}))
        *mixed, last = res.records
        assert last.token == stop and last.mode == "standard"
        np.testing.assert_array_equal(last.weights, last.support == stop)
        assert mixed and all(rec.mode == "moi" for rec in mixed)

    def test_context_overflow_rejected(self, bench_model):
        with pytest.raises(ValueError, match="context"):
            generate(bench_model, list(range(200)), gen_cfg(max_tokens=100))

    def test_bad_prompt_rejected(self, bench_model):
        with pytest.raises(ValueError):
            generate(bench_model, [], gen_cfg())
        with pytest.raises(ValueError):
            generate(bench_model, [999], gen_cfg())

    def test_moi_huge_beta_tracks_one_hot_inputs(self, bench_model):
        from moi.embedding import lookup, mix_embeddings
        from moi.mix_core import MixingWeights

        res = generate(bench_model, list(b"ab"), gen_cfg(mode="moi", beta=1e9, seed=8, max_tokens=20))
        table = bench_model.embedding_table
        max_norm = float(np.max(np.abs(table.matrix)))
        for rec in res.records:
            mixed = mix_embeddings(table, MixingWeights(ids=rec.support, weights=rec.weights))
            gap = np.max(np.abs(mixed - lookup(table, rec.token)))
            assert gap <= 1e-7 * max_norm

    def test_one_hot_distribution_collapse(self, stub_model):
        base = generate(stub_model, [0], gen_cfg(mode="standard", max_tokens=40)).tokens
        for beta in (0.01, 1.0, 1e6):
            got = generate(stub_model, [0], gen_cfg(mode="moi", beta=beta, max_tokens=40)).tokens
            assert got == base


def assert_same_result(a, b):
    """Tokens and every StepRecord field equal bit for bit."""
    assert a.tokens == b.tokens
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert (ra.step, ra.token, ra.mode) == (rb.step, rb.token, rb.mode)
        assert np.float64(ra.entropy).tobytes() == np.float64(rb.entropy).tobytes()
        for x, y in ((ra.support, rb.support), (ra.probs, rb.probs), (ra.weights, rb.weights)):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# the calls of one decode step; replay_verify may also call the weight rule,
# which it recomputes from a trace with no step around it
STEP_CALLS = ("sample_position", "feedback_weights", "mix")
# calls no module but pipeline makes, and there only the decode loop (its
# batched forward: `_forward_rows`)
BATCH_CALLS = ("decode_rows", "truncate_rows")


def calls_by_function(path, names):
    """{name: the functions in `path` that call it}."""
    callers = {name: set() for name in names}
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                called = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                if called in callers:
                    callers[called].add(func.name)
    return callers


def test_one_function_runs_the_decode_step():
    # a second step loop would call these from a second function
    callers = calls_by_function(Path(pipeline.__file__), STEP_CALLS + BATCH_CALLS + ("make_rng",))
    callers["feedback_weights"].discard("replay_verify")
    # one stream per config, shared by every decode that uses it
    assert callers.pop("make_rng") == {"draws"}
    assert callers == {**dict.fromkeys(STEP_CALLS + BATCH_CALLS, {"_decode"}), "decode_rows": {"_forward_rows"}}
    for path in Path(pipeline.__file__).parent.glob("*.py"):
        if path.name != "pipeline.py":
            assert calls_by_function(path, BATCH_CALLS) == dict.fromkeys(BATCH_CALLS, set()), path.name


def test_a_config_draws_its_stream_once():
    cfg = GenConfig(sampler=SamplerConfig(seed=12), max_tokens=7)
    draws = cfg.draws
    # token k takes the k-th float64 of PCG64(seed)
    assert draws.tobytes() == np.random.Generator(np.random.PCG64(12)).random(7).tobytes()
    assert cfg.draws is draws and not draws.flags.writeable
    assert replace(cfg, max_tokens=3).draws.tobytes() == draws[:3].tobytes()


class TestIntegerInputs:
    # each of these was once coerced: int() truncates 1.7 and 2.5, and
    # frozenset("ab") makes stop tokens of characters that never match
    def test_string_stop_tokens_rejected(self):
        with pytest.raises(TypeError):
            GenConfig(stop_tokens="ab")

    def test_float_prompt_token_rejected(self, bench_model):
        with pytest.raises(TypeError):
            generate(bench_model, [1.7, True], gen_cfg())

    def test_float_seed_rejected(self):
        with pytest.raises(TypeError):
            SamplerConfig(seed=1.5)

    def test_float_max_tokens_rejected(self):
        with pytest.raises(TypeError):
            GenConfig(max_tokens=2.5)

    def test_max_tokens_below_one_rejected(self):
        for max_tokens in (0, -1):
            with pytest.raises(ValueError, match=f"max_tokens must be >= 1, got {max_tokens}"):
                GenConfig(max_tokens=max_tokens)

    # operator.index(True) is 1: bools once passed as token ids
    def test_bool_prompt_token_rejected(self, bench_model):
        with pytest.raises(TypeError, match="bool"):
            check_prompt(bench_model, [True, 2])

    def test_bool_stop_token_rejected(self):
        with pytest.raises(TypeError, match="bool"):
            GenConfig(stop_tokens=[True])

    # greedy_decode once stopped at 197 for a stop token 197.0 and at 1 for
    # True, and ran the prompt before "ab" raised
    @pytest.mark.parametrize("stops", [frozenset({197.0}), frozenset({True}), "ab"], ids=["float", "bool", "str"])
    def test_greedy_decode_stop_tokens_rejected_before_any_forward(self, bench_model, monkeypatch, stops):
        monkeypatch.setattr(Model, "forward_step", lambda *a: pytest.fail("a forward ran"))
        with pytest.raises(TypeError):
            greedy_decode(bench_model, [97, 98], 8, stops)

    def test_bool_counts_rejected(self, bench_model, tmp_path):
        with pytest.raises(TypeError, match="max_tokens must be an integer, not a bool"):
            GenConfig(max_tokens=True)
        with pytest.raises(TypeError, match="token count must be an integer, not a bool"):
            greedy_decode(bench_model, [1, 2], True)
        # the grid builds every trial's GenConfig before its first trial
        spec = GridSpec(task=TaskSpec(model=bench_model, prompts=[(1, 2)], budget=True), seeds=(0,))
        with pytest.raises(TypeError, match="max_tokens must be an integer, not a bool"):
            run_grid(spec, out_path=tmp_path / "grid.csv")
        assert not list(tmp_path.iterdir())

    def test_bool_run_counts_rejected(self, bench_model):
        cfg = gen_cfg(max_tokens=2)
        with pytest.raises(TypeError, match="runs must be an integer, not a bool"):
            throughput_bench(bench_model, cfg, cfg, [(1, 2)], 2, runs=True)

    def test_bool_jobs_rejected(self, bench_model, tmp_path):
        spec = GridSpec(task=TaskSpec(model=bench_model, prompts=[(1, 2)], budget=2), seeds=(0,))
        with pytest.raises(TypeError, match="jobs must be an integer, not a bool"):
            run_grid(spec, out_path=tmp_path / "grid.csv", jobs=True)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, bench_model, tmp_path, jobs):
        # it once ran the grid serially without a word
        spec = GridSpec(task=TaskSpec(model=bench_model, prompts=[(1, 2)], budget=2), seeds=(0,))
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            run_grid(spec, out_path=tmp_path / "grid.csv", jobs=jobs)
        assert not list(tmp_path.iterdir())

    def test_bool_max_n_rejected(self):
        table = ResultsTable(rows=[TrialRow("moi", 1.0, 0.95, 0.6, 0, 0.5)])
        with pytest.raises(TypeError, match="max_n must be an integer, not a bool"):
            best_of_n_gain(table, "beta", True)

    def test_numpy_integers_accepted(self, bench_model):
        assert check_prompt(bench_model, [np.int64(1), np.uint8(2)]) == [1, 2]
        cfg = GenConfig(sampler=SamplerConfig(seed=np.uint64(3)), max_tokens=np.int64(4), stop_tokens=[np.int32(7)])
        assert (cfg.max_tokens, cfg.stop_tokens, cfg.sampler.seed) == (4, frozenset({7}), 3)
        assert type(cfg.max_tokens) is int and type(cfg.sampler.seed) is int
        plain = GenConfig(sampler=SamplerConfig(seed=3), max_tokens=4, stop_tokens={7})
        assert generate(bench_model, np.array([97, 98]), cfg).tokens == generate(bench_model, [97, 98], plain).tokens


class TestStartRule:
    """`generate`, `greedy_decode` and `prefill` start through one rule:
    prompt plus new tokens must fit the context, checked before any
    forward."""

    PROMPT = list(range(1, 9))

    @pytest.fixture(scope="class")
    def model12(self):
        return init_random(ModelConfig(vocab=48, dim=32, heads=4, layers=2, context=12, init_seed=5))

    @pytest.fixture
    def forwards(self, monkeypatch):
        calls = []
        real = Model.forward_step
        monkeypatch.setattr(Model, "forward_step", lambda self, state, x: calls.append(1) or real(self, state, x))
        return calls

    def test_last_request_that_fits_is_served(self, model12, forwards):
        assert len(generate(model12, self.PROMPT, gen_cfg(max_tokens=4)).tokens) == 4
        assert len(greedy_decode(model12, self.PROMPT, 4)) == 4
        assert len(forwards) == 2 * (len(self.PROMPT) + 3)

    def test_one_token_more_raises_before_any_forward(self, model12, forwards):
        # greedy_decode once served 8 + 5 on context 12, and ran 13 forwards
        # before failing at 8 + 6
        message = r"^prompt \(8\) \+ max_tokens \(5\) exceeds model context 12$"
        with pytest.raises(ValueError, match=message):
            generate(model12, self.PROMPT, gen_cfg(max_tokens=5))
        with pytest.raises(ValueError, match=message):
            greedy_decode(model12, self.PROMPT, 5)
        for budget in (6, 200):
            with pytest.raises(ValueError, match=rf"max_tokens \({budget}\) exceeds"):
                greedy_decode(model12, self.PROMPT, budget)
        assert forwards == []

    def test_greedy_decode_needs_a_token(self, model12, forwards):
        for budget in (0, -1):
            with pytest.raises(ValueError, match="at least 1 new token"):
                greedy_decode(model12, self.PROMPT, budget)
        assert forwards == []

    def test_a_batch_of_references_checks_every_prompt_before_any_forward(self, model12, forwards, monkeypatch):
        # the over-long prompt comes last, after a group that would batch
        monkeypatch.setattr(kernels, "decode_rows", lambda *a: pytest.fail("a batched forward ran"))
        prompts = [(1, 2), (3, 4), (5,), tuple(self.PROMPT)]
        message = r"^prompt \(8\) \+ max_tokens \(5\) exceeds model context 12$"
        with pytest.raises(ValueError, match=message):
            pipeline._greedy_rows(model12, prompts, 5, frozenset())
        with pytest.raises(ValueError, match=message):
            greedy_recovery_score(model12, gen_cfg(max_tokens=5), prompts, 5, _ref_cache={})
        assert forwards == []

    def test_prefill_leaves_room_for_a_token(self, model12, forwards):
        with pytest.raises(ValueError, match=r"^prompt \(12\) \+ max_tokens \(1\) exceeds model context 12$"):
            prefill(model12, list(range(12)))
        assert forwards == []
        start = prefill(model12, list(range(11)))
        assert start.state.capacity == 11
        assert generate(model12, list(range(11)), gen_cfg(max_tokens=1), prefix=start).tokens


class TestPrefix:
    PROMPT = list(b"hello")

    def test_prefix_equals_fresh_generate(self, bench_model):
        start = prefill(bench_model, self.PROMPT)
        for mode in ("standard", "direct_mixture", "moi"):
            for seed in range(3):
                cfg = gen_cfg(mode=mode, seed=seed, max_tokens=24)
                fresh = generate(bench_model, self.PROMPT, cfg)
                # the same Prefill twice: a write to its state would show
                assert_same_result(generate(bench_model, self.PROMPT, cfg, prefix=start), fresh)
                assert_same_result(generate(bench_model, self.PROMPT, cfg, prefix=start), fresh)

    def test_prefix_with_stop_tokens(self, bench_model):
        start = prefill(bench_model, self.PROMPT)
        stopped = 0
        for seed in range(6):
            first = generate(bench_model, self.PROMPT, gen_cfg(seed=seed, max_tokens=12)).tokens
            cfg = gen_cfg(seed=seed, max_tokens=12, stop_tokens=frozenset({first[3]}))
            fresh = generate(bench_model, self.PROMPT, cfg)
            stopped += len(fresh.tokens) < 12
            assert_same_result(generate(bench_model, self.PROMPT, cfg, prefix=start), fresh)
        assert stopped

    def test_prefill_state_is_left_unchanged(self, bench_model):
        start = prefill(bench_model, self.PROMPT)
        k, v, logits = start.state.k_cache.copy(), start.state.v_cache.copy(), start.logits.copy()
        generate(bench_model, self.PROMPT, gen_cfg(max_tokens=30), prefix=start)
        assert start.state.length == len(self.PROMPT)
        np.testing.assert_array_equal(start.state.k_cache, k)
        np.testing.assert_array_equal(start.state.v_cache, v)
        np.testing.assert_array_equal(start.logits, logits)

    def test_prefix_for_another_prompt_rejected(self, bench_model):
        start = prefill(bench_model, self.PROMPT)
        with pytest.raises(ValueError, match="prompt"):
            generate(bench_model, list(b"hellO"), gen_cfg(), prefix=start)
        with pytest.raises(ValueError, match="prompt"):
            generate(bench_model, self.PROMPT[:-1], gen_cfg(), prefix=start)

    def test_prefix_from_another_model_rejected(self, bench_model):
        twin = init_random(ModelConfig(init_seed=9))  # same weights, another object
        start = prefill(twin, self.PROMPT)
        with pytest.raises(ValueError, match="another model"):
            generate(bench_model, self.PROMPT, gen_cfg(), prefix=start)

    def test_state_sized_to_request(self, bench_model):
        start = prefill(bench_model, self.PROMPT)
        assert start.state.capacity == len(self.PROMPT)
        sizes = []
        real_new_state = type(bench_model).new_state

        class Spy(type(bench_model)):
            def new_state(self, capacity=None):
                state = real_new_state(self, capacity)
                sizes.append(state.capacity)
                return state

        spy = Spy(bench_model.config, bench_model.params)
        generate(spy, self.PROMPT, gen_cfg(max_tokens=7))
        assert sizes == [len(self.PROMPT) + 7 - 1]


def records_sha256(records) -> str:
    """sha256 of every StepRecord field: step, token, mode, the entropy's
    float64 bytes and the dtype, size and bytes of support, probs and
    weights."""
    h = hashlib.sha256()
    for rec in records:
        h.update(f"{rec.step} {rec.token} {rec.mode}\n".encode())
        h.update(np.float64(rec.entropy).tobytes())
        for arr in (rec.support, rec.probs, rec.weights):
            h.update(f"{arr.dtype.str} {arr.size}\n".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


class TestGoldenTokens:
    def test_default_model_tokens_unchanged(self, default_model):
        golden = json.loads((Path(__file__).parent / "golden_tokens.json").read_text())
        for case in golden["cases"]:
            records = []
            for mode, want in case["tokens"].items():
                cfg = GenConfig(
                    mix=MixConfig(mode, 1.0),
                    sampler=SamplerConfig(0.8, 0.95, seed=case["seed"]),
                    max_tokens=len(want),
                )
                res = generate(default_model, list(case["prompt"].encode()), cfg)
                assert res.tokens == want, (case["prompt"], mode)
                records += res.records
            assert records_sha256(records) == case["records_sha256"], case["prompt"]


VALID_LINE = '{"step":0,"token":3,"H":0.0,"support":[3],"probs":[1.0],"weights":[1.0],"mode":"standard"}'

# valid V=4 lines, one per mode (the moi one is the frozen worked example)
FUZZ_LINES = (
    VALID_LINE,
    '{"step":1,"token":1,"H":0.5,"support":[0,1],"probs":[0.5,0.5],"weights":[0.5,0.5],"mode":"direct_mixture"}',
    '{"step":2,"token":0,"H":0.6283898247235197,"support":[0,1,2,3],"probs":[0.7,0.2,0.05,0.05],'
    '"weights":[0.905741526291472,0.06283898247235197,0.015709745618087993,0.015709745618087993],"mode":"moi"}',
)
FUZZ_VALUES = (None, True, False, 0, -1, 7, 2**70, 1.5, float("nan"), float("inf"), "3", "moi", [], [1], [[0.5]], [True], {"a": 1})


@st.composite
def mutated_trace_line(draw):
    """A valid trace line after one to three mutations: a key dropped, a
    value or a list item swapped for another JSON type, a value nested in
    a list, or the line truncated."""
    obj = json.loads(draw(st.sampled_from(FUZZ_LINES)))
    values = st.sampled_from(FUZZ_VALUES).map(copy.deepcopy)
    for _ in range(draw(st.integers(1, 3))):
        if not obj:
            break
        key = draw(st.sampled_from(sorted(obj)))
        kind = draw(st.sampled_from(("drop", "swap", "swap_item", "nest")))
        if kind == "drop":
            del obj[key]
        elif kind == "swap":
            obj[key] = draw(values)
        elif kind == "swap_item" and isinstance(obj[key], list) and obj[key]:
            obj[key][draw(st.integers(0, len(obj[key]) - 1))] = draw(values)
        else:
            obj[key] = [obj[key]]
    line = json.dumps(obj)
    if draw(st.booleans()):
        line = line[: draw(st.integers(0, len(line)))]
    return line


class TestTraceIO:
    def test_empty_result_empty_file(self, bench_model, tmp_path):
        res = generate(bench_model, list(b"a"), gen_cfg(max_tokens=1))
        res.records.clear()
        res.tokens.clear()
        path = tmp_path / "t.jsonl"
        write_trace(res, path)
        assert path.read_text() == ""
        assert read_trace(path) == []

    def test_line_count_and_round_trip(self, bench_model, tmp_path):
        res = generate(bench_model, list(b"ab"), gen_cfg(max_tokens=5, seed=1))
        path = tmp_path / "t.jsonl"
        write_trace(res, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 5
        back = read_trace(path)
        for orig, rt in zip(res.records, back):
            assert orig.step == rt.step and orig.token == rt.token and orig.mode == rt.mode
            assert orig.entropy == rt.entropy
            np.testing.assert_array_equal(orig.support, rt.support)
            np.testing.assert_array_equal(orig.probs, rt.probs)
            np.testing.assert_array_equal(orig.weights, rt.weights)

    def test_writes_float64_and_int64_values(self, tmp_path):
        # float32 0.3 and 0.7 sum to exactly 1 in float64; orjson alone
        # would write them as "0.3" and "0.7"
        probs = np.array([0.3, 0.7], dtype=np.float32)
        rec = StepRecord(step=0, token=9, entropy=np.float32(0.1), support=np.array([3, 0, 9, 0])[::2],
                         probs=probs, weights=np.array([0.1, 0.9], dtype=np.float32), mode="direct_mixture")
        path = tmp_path / "t.jsonl"
        write_trace(GenerationResult([9], [rec], 0.0, 0.0, 1), path)
        (back,) = read_trace(path)
        assert back.entropy == float(np.float32(0.1))
        assert back.support.dtype == np.int64 and back.support.tolist() == [3, 9]
        assert back.probs.tobytes() == probs.astype(np.float64).tobytes()
        assert back.weights.tobytes() == np.array([0.1, 0.9], dtype=np.float32).astype(np.float64).tobytes()

    def test_non_finite_value_is_not_written(self, tmp_path):
        def rec(**kw):
            fields = dict(step=4, token=1, entropy=0.5, support=np.array([0, 1]),
                          probs=np.array([0.5, 0.5]), weights=np.array([0.5, 0.5]), mode="direct_mixture")
            return StepRecord(**{**fields, **kw})

        path = tmp_path / "t.jsonl"
        for bad in (rec(weights=np.array([np.nan, 0.5])), rec(entropy=np.inf), rec(probs=np.array([0.5, -np.inf]))):
            with pytest.raises(ValueError, match="step 4"):
                write_trace(GenerationResult([1], [rec(step=3), bad], 0.0, 0.0, 1), path)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(support=np.array([1, 1])), "duplicate support ids"),
            (dict(probs=np.array([0.1, 0.2])), "probs: probabilities sum to 0.30000000000000004"),
        ],
        ids=["duplicate-ids", "probs-sum"],
    )
    def test_record_read_trace_refuses_is_not_written(self, tmp_path, fields, message):
        good = StepRecord(step=3, token=1, entropy=0.5, support=np.array([0, 1]), probs=np.array([0.5, 0.5]),
                          weights=np.array([0.5, 0.5]), mode="direct_mixture")
        path = tmp_path / "t.jsonl"
        with pytest.raises(ValueError, match=f"^step 4: {message}"):
            write_trace(GenerationResult([1, 1], [good, replace(good, step=4, **fields)], 0.0, 0.0, 2), path)
        # the line before the refused record is kept, and reads back
        (back,) = read_trace(path)
        assert records_sha256([back]) == records_sha256([good])

    def test_stdlib_json_interoperates_bit_exactly(self, bench_model, tmp_path):
        cfg = GenConfig(mix=MixConfig("moi", 1.0), sampler=SamplerConfig(1.0, 1.0, seed=4), max_tokens=12)
        records = generate(bench_model, list(b"hi"), cfg).records
        # weights from random finite non-negative bit patterns, then -0.0, the
        # smallest subnormal, a float stdlib writes as 1e-05 and the largest double
        bits = np.random.default_rng(0).integers(0, 0x7FF0000000000000, size=4096, dtype=np.uint64)
        weights = np.concatenate([bits.view(np.float64), [-0.0, 5e-324, 1e-05, 1.7976931348623157e308]])
        probs = np.zeros(weights.size)
        probs[7] = 1.0
        records.append(StepRecord(step=12, token=7, entropy=1e-05, support=np.arange(weights.size),
                                  probs=probs, weights=weights, mode="standard"))
        # traces were written this way before orjson: spaced separators, Python float lists
        old = tmp_path / "old.jsonl"
        with open(old, "w", encoding="utf-8") as fh:
            for rec in records:
                obj = {"step": rec.step, "token": rec.token, "H": rec.entropy,
                       "support": [int(i) for i in rec.support], "probs": [float(p) for p in rec.probs],
                       "weights": [float(w) for w in rec.weights], "mode": rec.mode}
                fh.write(json.dumps(obj) + "\n")
        assert records_sha256(read_trace(old)) == records_sha256(records)

        new = tmp_path / "new.jsonl"
        write_trace(GenerationResult([], records, 0.0, 0.0, 1), new)
        assert new.read_bytes() != old.read_bytes()
        assert records_sha256(read_trace(new)) == records_sha256(records)
        for rec, line in zip(records, new.read_bytes().splitlines(), strict=True):
            obj = json.loads(line)
            assert (obj["step"], obj["token"], obj["mode"]) == (rec.step, rec.token, rec.mode)
            assert np.float64(obj["H"]).tobytes() == np.float64(rec.entropy).tobytes()
            assert np.array(obj["support"], dtype=np.int64).tobytes() == rec.support.tobytes()
            assert np.array(obj["probs"], dtype=np.float64).tobytes() == rec.probs.tobytes()
            assert np.array(obj["weights"], dtype=np.float64).tobytes() == rec.weights.tobytes()

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"step":0,"token":1,"H":0.5,"support":[1],"probs":[1.0],"weights":[1.0],"mode":"standard"}\nnot json\n')
        with pytest.raises(TraceFormatError, match="line 2"):
            read_trace(path)

    def test_schema_violations(self, tmp_path):
        cases = [
            '{"step":0,"token":1,"H":1.5,"support":[1],"probs":[1.0],"weights":[1.0],"mode":"moi"}',
            '{"step":0,"token":1,"H":0.5,"support":[1,2],"probs":[1.0],"weights":[1.0],"mode":"moi"}',
            '{"step":0,"token":1,"H":0.5,"support":[1],"probs":[1.0],"weights":[-1.0],"mode":"moi"}',
            '{"step":0,"token":1,"H":0.5,"support":[1],"probs":[1.0],"weights":[1.0],"mode":"nope"}',
            '{"token":1,"H":0.5,"support":[1],"probs":[1.0],"weights":[1.0],"mode":"moi"}',
            '{"step":0,"token":255,"H":0.0,"support":[-1],"probs":[1.0],"weights":[1.0],"mode":"standard"}',
            '{"step":0,"token":3,"H":0.0,"support":[3,3],"probs":[1.0,0.0],"weights":[0,1],"mode":"standard"}',
            '{"step":0,"token":2,"H":0.0,"support":[1],"probs":[1.0],"weights":[1.0],"mode":"standard"}',
            '{"step":0,"token":1,"H":0.0,"support":[[1]],"probs":[[1.0]],"weights":[[1.0]],"mode":"standard"}',
            '{"step":0,"token":3,"H":0.1,"support":[3,4],"probs":[0.5,0.2],"weights":[0.6,0.4],"mode":"moi"}',
            '{"step":0,"token":3,"H":0.1,"support":[3,4],"probs":[1.2,-0.2],"weights":[0.6,0.4],"mode":"moi"}',
            '{"step":0,"token":3,"H":0.1,"support":[3,4],"probs":[NaN,1.0],"weights":[0.6,0.4],"mode":"moi"}',
            '{"step":0,"token":3,"H":0.1,"support":[3,4],"probs":[0.5,0.5000001],"weights":[0.6,0.4],"mode":"moi"}',
            # ids are JSON integers: no float, string or bool is coerced
            '{"step":0,"token":"255","H":0.0,"support":[255.9],"probs":[1.0],"weights":[1.0],"mode":"standard"}',
            '{"step":1.7,"token":3,"H":0.0,"support":["3"],"probs":[1.0],"weights":[1.0],"mode":"standard"}',
            '{"step":1.7,"token":3,"H":0.0,"support":[3],"probs":[1.0],"weights":[1.0],"mode":"standard"}',
            '{"step":0,"token":"3","H":0.0,"support":[3],"probs":[1.0],"weights":[1.0],"mode":"standard"}',
            '{"step":0,"token":3,"H":0.0,"support":[3.0],"probs":[1.0],"weights":[1.0],"mode":"standard"}',
            '{"step":0,"token":true,"H":0.0,"support":[1],"probs":[1.0],"weights":[1.0],"mode":"standard"}',
            '{"step":0,"token":1,"H":0.0,"support":[true],"probs":[1.0],"weights":[1.0],"mode":"standard"}',
            '{"step":0,"token":3,"H":0.0,"support":[3],"probs":["1.0"],"weights":[1.0],"mode":"standard"}',
            '{"step":0,"token":3,"H":0.0,"support":3,"probs":1.0,"weights":1.0,"mode":"standard"}',
            '{"step":0,"token":3,"H":0.0,"support":[99999999999999999999],"probs":[1.0],"weights":[1.0],"mode":"standard"}',
            # an id above 2**64 parses as a float
            '{"step":0,"token":3,"H":0.0,"support":[3,18446744073709551616],"probs":[1.0,0.0],"weights":[1.0,0.0],"mode":"standard"}',
            # JSON has no NaN or infinity
            '{"step":0,"token":3,"H":0.1,"support":[3,4],"probs":[0.5,0.5],"weights":[Infinity,0.4],"mode":"moi"}',
            '{"step":0,"token":3,"H":-Infinity,"support":[3],"probs":[1.0],"weights":[1.0],"mode":"standard"}',
            '{"step":0,"token":3,"H":NaN,"support":[3],"probs":[1.0],"weights":[1.0],"mode":"standard"}',
        ]
        byte_cases = [
            b"\xff\xfe{}",  # not UTF-8
            VALID_LINE.encode()[:-1] + b"\xff}",
            b"\xef\xbb\xbf" + VALID_LINE.encode(),  # a UTF-8 byte-order mark
        ]
        path = tmp_path / "ok.jsonl"
        path.write_text(VALID_LINE + "\n")
        assert len(read_trace(path)) == 1
        for line in [c.encode() for c in cases] + byte_cases:
            path = tmp_path / "case.jsonl"
            path.write_bytes(line + b"\n")
            with pytest.raises(TraceFormatError, match="line 1"):
                read_trace(path)


@st.composite
def spliced_trace_bytes(draw):
    """A valid trace line with up to 8 random bytes inserted, or put in
    place of a slice of it."""
    line = draw(st.sampled_from(FUZZ_LINES)).encode()
    start = draw(st.integers(0, len(line)))
    stop = draw(st.integers(start, min(len(line), start + 8)))
    return line[:start] + draw(st.binary(min_size=1, max_size=8)) + line[stop:]


class TestTraceFuzz:
    @settings(deadline=None, max_examples=300)
    @given(line=mutated_trace_line())
    def test_mutated_line_is_format_error_or_replays(self, tmp_path_factory, line):
        self.check_reads_or_format_error(tmp_path_factory, line.encode())

    @settings(deadline=None, max_examples=300)
    @given(line=spliced_trace_bytes())
    def test_spliced_bytes_are_format_error_or_replay(self, tmp_path_factory, line):
        self.check_reads_or_format_error(tmp_path_factory, line)

    @staticmethod
    def check_reads_or_format_error(tmp_path_factory, line: bytes):
        path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        path.write_bytes(line + b"\n")
        try:
            records = read_trace(path)
        except TraceFormatError:
            return
        for rec in records:
            try:
                report = replay_verify([rec], gen_cfg(mode=rec.mode), vocab_size=4)
            except TraceFormatError:
                continue
            assert report.steps == 1


@st.composite
def step_records(draw):
    """A finite StepRecord: a valid one (the engine's weights for a drawn
    distribution), or one with zero to three fields replaced by values
    that may break a record rule."""
    n = draw(st.integers(1, 5))
    support = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    probs = raw / raw.sum()
    pos = draw(st.integers(0, n - 1))
    mode = draw(st.sampled_from(MODES))
    entropy = entropy_of(probs, 64)
    weights = feedback_weights(mode, probs, pos, entropy, 1.0)
    fields = dict(step=draw(st.integers(0, 1000)), token=support[pos], entropy=entropy,
                  support=np.array(support, dtype=np.int64), probs=probs, weights=weights, mode=mode)
    floats = st.floats(-0.5, 1.5)
    arrays = st.lists(floats, max_size=6).map(np.array)
    nudged = st.tuples(st.integers(0, n - 1), st.floats(-2e-9, 2e-9))
    mutations = {
        "step": st.integers(-5, 2**40),
        "token": st.integers(-3, 45),
        "entropy": floats | st.sampled_from([-0.0, 1.0000000000000002, -5e-324]),
        "support": st.lists(st.integers(-3, 45), max_size=6).map(lambda ids: np.array(ids, dtype=np.int64))
        | st.tuples(st.integers(0, n - 1), st.sampled_from([*support, -1])).map(lambda d: np.array(
            [*support[: d[0]], d[1], *support[d[0] + 1 :]], dtype=np.int64)),  # a repeated or negative id
        "probs": arrays | nudged.map(lambda d: probs + np.eye(n)[d[0]] * d[1]),
        "weights": arrays | st.integers(0, n - 1).map(lambda i: weights - np.eye(n)[i]),
        "mode": st.sampled_from(MODES + ("bogus", "")),
    }
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(mutations)))
        fields[key] = draw(mutations[key])
    return StepRecord(**fields)


class TestReplayVerify:
    @settings(deadline=None, max_examples=300)
    @given(rec=step_records())
    def test_replay_refuses_exactly_what_read_trace_refuses(self, tmp_path_factory, rec):
        # one rule set: writing the record and replaying it raise exactly
        # when reading its line does
        path = tmp_path_factory.getbasetemp() / "agree.jsonl"
        path.write_bytes(pipeline._record_to_json(rec))
        try:
            read_trace(path)
            refused = False
        except TraceFormatError:
            refused = True
        try:
            write_trace(GenerationResult([], [rec], 0.0, 0.0, 1), path)
            written = True
        except TraceFormatError:
            written = False
        assert written != refused
        assert records_sha256(read_trace(path)) == records_sha256([rec] if written else [])
        known = rec.mode in MODES
        cfg = gen_cfg(mode=rec.mode if known else "moi")
        vocab = max([1, rec.token, *rec.support.tolist()]) + 1
        if not refused:
            assert replay_verify([rec], cfg, vocab_size=vocab).steps == 1
        elif known:
            with pytest.raises(TraceFormatError, match=f"^step {rec.step}: "):
                replay_verify([rec], cfg, vocab_size=vocab)
        else:
            with pytest.raises(ValueError, match="incompatible"):
                replay_verify([rec], cfg, vocab_size=vocab)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(support=np.array([3, 3])), "duplicate support ids"),
            (dict(entropy=1.5), r"H=1.5 outside \[0, 1\]"),
            (dict(weights=np.array([1.5, -0.5])), "weights must be non-negative"),
        ],
        ids=["duplicate-ids", "entropy-above-1", "negative-weight"],
    )
    def test_rule_read_trace_applies_is_format_error(self, fields, message):
        # a rule read_trace applies to a line holds for an in-memory record too
        rec = StepRecord(**{**dict(step=2, token=3, entropy=0.0, support=np.array([3, 1]), probs=np.array([1.0, 0.0]),
                                   weights=np.array([1.0, 0.0]), mode="standard"), **fields})
        with pytest.raises(TraceFormatError, match=f"^step 2: {message}"):
            replay_verify([rec], gen_cfg(mode="standard"), vocab_size=4)

    def test_probs_checked_once_per_record(self, bench_model, tmp_path, monkeypatch):
        cfg = gen_cfg(mode="moi", seed=6, max_tokens=12)
        path = tmp_path / "t.jsonl"
        write_trace(generate(bench_model, list(b"hi"), cfg), path)
        calls = []
        real = mix_core.check_probs
        monkeypatch.setattr(mix_core, "check_probs", lambda p: calls.append(1) or real(p))
        trace = read_trace(path)
        assert len(calls) == len(trace) == 12
        assert replay_verify(trace, cfg, vocab_size=256).passed
        assert len(calls) == 24

    def test_engine_trace_passes(self, bench_model, tmp_path):
        for mode in ("standard", "direct_mixture", "moi"):
            cfg = gen_cfg(mode=mode, seed=6, max_tokens=12)
            res = generate(bench_model, list(b"hi"), cfg)
            path = tmp_path / f"{mode}.jsonl"
            write_trace(res, path)
            report = replay_verify(read_trace(path), cfg, vocab_size=256)
            assert report.passed and report.max_weight_dev <= 1e-9

    def test_perturbed_weight_fails_with_step(self, bench_model, tmp_path):
        cfg = gen_cfg(mode="moi", seed=6, max_tokens=12)
        res = generate(bench_model, list(b"hi"), cfg)
        path = tmp_path / "t.jsonl"
        write_trace(res, path)
        trace = read_trace(path)
        trace[7].weights[0] += 1e-3
        report = replay_verify(trace, cfg, vocab_size=256)
        assert not report.passed
        assert report.first_failed_step == 7

    def test_mode_mismatch_is_config_error(self, bench_model):
        cfg_moi = gen_cfg(mode="moi", seed=1, max_tokens=4)
        res = generate(bench_model, list(b"ab"), cfg_moi)
        with pytest.raises(ValueError, match="incompatible"):
            replay_verify(res.records, gen_cfg(mode="direct_mixture"), vocab_size=256)

    def test_standard_records_allowed_under_mixing_cfg(self, bench_model):
        stop = generate(bench_model, list(b"ab"), gen_cfg(mode="moi", seed=2, max_tokens=6)).tokens[3]
        cfg = gen_cfg(mode="moi", seed=2, max_tokens=6, stop_tokens={stop})
        res = generate(bench_model, list(b"ab"), cfg)
        assert res.records[-1].mode == "standard"
        assert replay_verify(res.records, cfg, vocab_size=256).passed

    def test_beta_mismatch_detected_as_deviation(self, bench_model):
        cfg = gen_cfg(mode="moi", beta=1.0, seed=3, max_tokens=8)
        res = generate(bench_model, list(b"ab"), cfg)
        report = replay_verify(res.records, gen_cfg(mode="moi", beta=4.0), vocab_size=256)
        assert not report.passed

    def test_support_id_outside_vocab_is_format_error(self):
        for token in (4, -1):
            rec = StepRecord(step=0, token=token, entropy=0.0, support=np.array([token]),
                             probs=np.array([1.0]), weights=np.array([1.0]), mode="standard")
            with pytest.raises(TraceFormatError, match="outside vocabulary of size 4"):
                replay_verify([rec], gen_cfg(mode="standard"), vocab_size=4)

    def test_misaligned_or_tokenless_record_is_format_error(self):
        def rec(**kw):
            fields = dict(step=0, token=1, entropy=0.5, support=np.array([0, 1]),
                          probs=np.array([0.5, 0.5]), weights=np.array([0.5, 0.5]), mode="direct_mixture")
            return StepRecord(**{**fields, **kw})

        cfg = gen_cfg(mode="direct_mixture")
        assert replay_verify([rec()], cfg, vocab_size=4).passed
        bad = (
            rec(probs=np.array([1.0])),
            rec(weights=np.array([0.5, 0.25, 0.25])),
            rec(support=np.array([[0, 1]])),
            rec(token=2),
            rec(support=np.array([], dtype=np.int64), probs=np.array([]), weights=np.array([])),
            rec(probs=np.array([0.5, 0.6])),
        )
        for r in bad:
            with pytest.raises(TraceFormatError, match="step 0"):
                replay_verify([r], cfg, vocab_size=4)

    def test_nan_weight_fails(self):
        # the NaN deviation stays in the summary after a step that replays exactly
        good = StepRecord(step=1, token=0, entropy=entropy_of(np.array([0.5, 0.5]), 4), support=np.array([0, 1]),
                          probs=np.array([0.5, 0.5]), weights=np.array([0.5, 0.5]), mode="direct_mixture")
        for probs, weights in (([0.5, 0.5], [0.5, np.nan]), ([0.6, 0.4], [np.nan, 0.4])):
            rec = StepRecord(step=0, token=1, entropy=entropy_of(np.array(probs), 4), support=np.array([0, 1]),
                             probs=np.array(probs), weights=np.array(weights), mode="direct_mixture")
            report = replay_verify([rec, good], gen_cfg(mode="direct_mixture"), vocab_size=4)
            assert not report.passed and report.first_failed_step == 0
            assert np.isnan(report.max_weight_dev) and report.max_entropy_dev == 0.0
            assert report.summary() == "replay FAIL at step 0: 2 steps, max |dH| = 0.000e+00, max |dw| = nan"

    def test_replay_of_engine_trace_is_exact_at_odd_vocab(self):
        # np.log and math.log of 9170 differ by one ulp: with one entropy
        # implementation the engine and replay still agree bit for bit
        model = init_random(ModelConfig(vocab=9170, dim=8, heads=2, layers=1, context=40))
        cfg = GenConfig(mix=MixConfig("moi", 1.0), sampler=SamplerConfig(1.0, 1.0, seed=0), max_tokens=8)
        res = generate(model, [1, 2, 3], cfg)
        report = replay_verify(res.records, cfg, vocab_size=9170)
        assert report.passed
        assert report.max_entropy_dev == report.max_weight_dev == 0.0

    def test_engine_weights_equal_public_rule_bit_for_bit(self, bench_model):
        vocab = bench_model.config.vocab
        for seed in range(4):
            cfg = gen_cfg(mode="moi", beta=[0.5, 1.0, 3.0, 1e6][seed], seed=seed, max_tokens=16)
            for rec in generate(bench_model, list(b"the"), cfg).records:
                want = posterior_mix_weights(rec.support, rec.probs, rec.token, cfg.mix.beta, vocab)
                assert want.ids.tobytes() == rec.support.tobytes()
                assert want.weights.tobytes() == rec.weights.tobytes()

    def test_hand_written_worked_example(self, tmp_path):
        # the frozen V=4 oracle: p=(0.7,0.2,0.05,0.05), sampled 0, beta 1
        line = (
            '{"step":0,"token":0,"H":0.6283898247235197,'
            '"support":[0,1,2,3],"probs":[0.7,0.2,0.05,0.05],'
            '"weights":[0.905741526291472,0.06283898247235197,0.015709745618087993,0.015709745618087993],'
            '"mode":"moi"}'
        )
        path = tmp_path / "hand.jsonl"
        path.write_text(line + "\n")
        report = replay_verify(read_trace(path), gen_cfg(mode="moi", beta=1.0), vocab_size=4)
        assert report.passed
