"""Generation loop, step records, trace files, and replay verification."""

import copy
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from moi.mix_core import MixConfig, check_probs, entropy_of, posterior_mix_weights
from moi.pipeline import (
    GenConfig,
    GenerationResult,
    StepRecord,
    TraceFormatError,
    generate,
    prefill,
    read_trace,
    replay_verify,
    write_trace,
)
from moi.sampler import SamplerConfig


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
        from moi.toy_lm import ModelConfig, init_random

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


class TestReplayVerify:
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
        from moi.toy_lm import ModelConfig, init_random

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
