"""Toy transformer: init, weight file round-trips, and the forward pass.

The forward pass is checked against an independent full-sequence
reference (masked attention over the whole prefix, matrix ops only, no
incremental cache) and against fixture values frozen from that reference
at first build.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moi
from moi.toy_lm import (
    Model,
    ModelConfig,
    TENSOR_ORDER,
    WeightFormatError,
    WeightShapeError,
    init_random,
    load_weights,
    save_weights,
)

# frozen at first build: last-position logits for prompt "ab", init_seed 42
AB_LOGITS_HEAD = [2.08863847836, -3.604773531057, -0.862696986182, -2.046175854573, 1.019954628319, -0.978056280551]
AB_ARGMAX = 116
AB_MAX = 5.11786867606
AB_SUM = -5.0287856031

# crc32 over raw little-endian f32 bytes, manifest order, init_seed 42
PARAM_CRC32_SEED42 = 3657521898


def reference_forward(model: Model, tokens) -> np.ndarray:
    """Full-sequence forward with masked attention; returns (T, V) logits."""
    cfg = model.config
    p = {k: v.astype(np.float64) for k, v in model.params.items()}
    d, heads = cfg.dim, cfg.heads
    hd = d // heads
    n = len(tokens)
    x = p["tok_emb"][list(tokens)] + p["pos_emb"][:n]

    def ln(v, g, b):
        mu = v.mean(axis=-1, keepdims=True)
        var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
        return g * (v - mu) / np.sqrt(var + 1e-5) + b

    mask = np.tril(np.ones((n, n), dtype=bool))
    for layer in range(cfg.layers):
        normed = ln(x, p["ln1_g"][layer], p["ln1_b"][layer])
        qkv = normed @ p["w_att"][layer] + p["b_att"][layer]
        q = qkv[:, :d].reshape(n, heads, hd)
        k = qkv[:, d : 2 * d].reshape(n, heads, hd)
        v = qkv[:, 2 * d :].reshape(n, heads, hd)
        scores = np.einsum("thd,shd->hts", q, k) / np.sqrt(hd)
        scores = np.where(mask[None], scores, -np.inf)
        scores = scores - scores.max(axis=-1, keepdims=True)
        att = np.exp(scores)
        att = att / att.sum(axis=-1, keepdims=True)
        ctx = np.einsum("hts,shd->thd", att, v).reshape(n, d)
        x = x + ctx @ p["w_proj"][layer] + p["b_proj"][layer]
        normed = ln(x, p["ln2_g"][layer], p["ln2_b"][layer])
        inner = normed @ p["w_fc"][layer] + p["b_fc"][layer]
        inner = 0.5 * inner * (1.0 + np.tanh(0.7978845608028654 * (inner + 0.044715 * inner**3)))
        x = x + inner @ p["w_out"][layer] + p["b_out"][layer]
    return ln(x, p["lnf_g"], p["lnf_b"]) @ p["tok_emb"].T


def run_prompt(model: Model, tokens) -> np.ndarray:
    state = model.new_state()
    logits = None
    for t in tokens:
        logits = model.forward_step(state, moi.lookup(model.embedding_table, t))
    return logits


class TestInitRandom:
    def test_same_seed_bit_identical(self):
        a = init_random(ModelConfig(init_seed=7))
        b = init_random(ModelConfig(init_seed=7))
        for name in TENSOR_ORDER:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_different_seed_differs(self):
        a = init_random(ModelConfig(init_seed=7))
        b = init_random(ModelConfig(init_seed=8))
        assert any(not np.array_equal(a.params[n], b.params[n]) for n in TENSOR_ORDER)

    def test_param_checksum_fixture(self):
        import zlib

        crc = 0
        model = init_random(ModelConfig(init_seed=42))
        for name in TENSOR_ORDER:
            crc = zlib.crc32(np.ascontiguousarray(model.params[name], dtype="<f4").tobytes(), crc)
        assert crc == PARAM_CRC32_SEED42

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(dim=30, heads=4)
        with pytest.raises(ValueError):
            ModelConfig(context=0)
        with pytest.raises(ValueError):
            ModelConfig(vocab=1)
        with pytest.raises(ValueError, match="init_seed must be a non-negative integer, got -2"):
            ModelConfig(init_seed=-2)

    @pytest.mark.parametrize(
        "edit, error, match",
        [
            (lambda p: p.pop("lnf_b"), ValueError, r"missing tensors: \['lnf_b'\]"),
            (lambda p: p.update(pos_emb=p["pos_emb"][:-1]), WeightShapeError, "'pos_emb': expected shape"),
            (lambda p: p["ln1_g"].__setitem__((0, 1), np.nan), ValueError, "'ln1_g' contains non-finite entries"),
            (lambda p: p["tok_emb"].__setitem__((2, 0), -np.inf), ValueError, "'tok_emb' contains non-finite entries"),
        ],
        ids=["missing", "wrong-shape", "nan", "infinity"],
    )
    def test_bad_params_rejected(self, small_model, edit, error, match):
        params = {name: arr.copy() for name, arr in small_model.params.items()}
        edit(params)
        with pytest.raises(error, match=match):
            Model(small_model.config, params)


class TestWeightFile:
    def test_round_trip_bit_exact(self, small_model, tmp_path):
        path = tmp_path / "m.tlm"
        save_weights(small_model, path)
        loaded = load_weights(path)
        assert loaded.config == small_model.config
        for name in TENSOR_ORDER:
            np.testing.assert_array_equal(loaded.params[name], small_model.params[name])

    def test_truncated_file(self, small_model, tmp_path):
        path = tmp_path / "m.tlm"
        save_weights(small_model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(WeightFormatError, match="truncated"):
            load_weights(path)

    def test_header_shape_mismatch(self, small_model, tmp_path):
        path = tmp_path / "m.tlm"
        save_weights(small_model, path)
        raw = path.read_bytes()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        header["tensors"][0]["shape"][1] -= 1
        with open(tmp_path / "bad.tlm", "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n" + raw[nl + 1 :])
        with pytest.raises(WeightShapeError, match="tok_emb"):
            load_weights(tmp_path / "bad.tlm")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "junk.tlm"
        path.write_bytes(b"this is not json\nxxxx")
        with pytest.raises(WeightFormatError):
            load_weights(path)

    def test_no_header_line(self, small_model, tmp_path):
        path = tmp_path / "m.tlm"
        save_weights(small_model, path)
        path.write_bytes(path.read_bytes().split(b"\n", 1)[0])
        with pytest.raises(WeightFormatError, match="no header line found"):
            load_weights(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_payload_names_the_tensor(self, small_model, tmp_path, value):
        path = tmp_path / "m.tlm"
        save_weights(small_model, path)
        raw = bytearray(path.read_bytes())
        nl = raw.find(b"\n")
        start = nl + 1 + json.loads(raw[:nl])["tensors"][2]["offset"]
        raw[start : start + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(WeightFormatError, match=f"tensor '{TENSOR_ORDER[2]}' contains non-finite entries"):
            load_weights(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            # int() truncated this offset and read the tensor from misaligned bytes
            (lambda h: h["tensors"][1].update(offset=h["tensors"][1]["offset"] + 1.5), "'pos_emb': offset"),
            (lambda h: h["tensors"][1].update(offset=h["tensors"][0]["offset"]), "'pos_emb' at byte 0 overlaps tensor 'tok_emb'"),
            (lambda h: h["tensors"][2].update(offset=h["tensors"][1]["offset"] + 4), "'ln1_g' at byte .* overlaps tensor 'pos_emb'"),
            (lambda h: h["tensors"][0].update(shape=5), "'tok_emb': shape must be a list"),
            (lambda h: h["tensors"][0].update(shape=[48.0, 32]), "'tok_emb': shape must be a list"),
            (lambda h: h["tensors"][3].update(offset="x"), "'ln1_b': offset"),
            (lambda h: h["tensors"][3].update(offset=-4), "'ln1_b': offset"),
            (lambda h: h["tensors"].append(1), "tensors must be a list of objects"),
            (lambda h: h["tensors"].append(dict(h["tensors"][0])), "names must be unique"),
            (lambda h: h["config"].update(vocab=8.7), "bad config block"),
        ],
        ids=["fractional_offset", "same_offset", "overlap", "int_shape", "float_dim", "string_offset",
             "negative_offset", "non_object_tensor", "repeated_name", "fractional_vocab"],
    )
    def test_bad_manifest_is_format_error(self, small_model, tmp_path, edit, match):
        path = tmp_path / "m.tlm"
        save_weights(small_model, path)
        raw = path.read_bytes()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        edit(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + raw[nl + 1 :])
        with pytest.raises(WeightFormatError, match=match):
            load_weights(path)

    def test_non_object_header_is_format_error(self, tmp_path):
        path = tmp_path / "m.tlm"
        path.write_bytes(b"[1]\n")
        with pytest.raises(WeightFormatError, match="format marker"):
            load_weights(path)

    def test_missing_tensor(self, small_model, tmp_path):
        path = tmp_path / "m.tlm"
        save_weights(small_model, path)
        raw = path.read_bytes()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        header["tensors"] = header["tensors"][1:]
        with open(tmp_path / "bad.tlm", "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n" + raw[nl + 1 :])
        with pytest.raises(WeightFormatError, match="missing"):
            load_weights(tmp_path / "bad.tlm")


WEIGHT_FUZZ_VALUES = (None, True, 0, -1, 7, 2**70, 1.5, "3", "f32", "tok_emb", [], [1], [4, 4], {"a": 1})


@pytest.fixture(scope="session")
def tiny_weight_file(tmp_path_factory):
    """A tiny model, the header line of its TLM/1 file and the bytes after it."""
    model = init_random(ModelConfig(vocab=4, dim=4, heads=1, layers=1, context=4, init_seed=3))
    path = tmp_path_factory.mktemp("tiny") / "m.tlm"
    save_weights(model, path)
    raw = path.read_bytes()
    nl = raw.find(b"\n")
    return model, raw[:nl], raw[nl + 1 :]


class TestWeightFileFuzz:
    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_mutated_header_is_format_error_or_same_weights(self, tiny_weight_file, tmp_path_factory, data):
        # one to three mutations of the header, its config or a tensor entry:
        # a key dropped, its value swapped for another JSON value or nested
        model, header_line, payload = tiny_weight_file
        header = json.loads(header_line)
        for _ in range(data.draw(st.integers(1, 3))):
            tensors = header.get("tensors")
            entries = tensors if isinstance(tensors, list) else []
            obj = data.draw(st.sampled_from([header, header.get("config"), *entries]))
            if not isinstance(obj, dict) or not obj:
                continue
            key = data.draw(st.sampled_from(sorted(obj)))
            kind = data.draw(st.sampled_from(("drop", "swap", "nest")))
            if kind == "drop":
                del obj[key]
            elif kind == "swap":
                obj[key] = data.draw(st.sampled_from(WEIGHT_FUZZ_VALUES))
            else:
                obj[key] = [obj[key]]
        path = tmp_path_factory.getbasetemp() / "fuzz.tlm"
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        try:
            loaded = load_weights(path)
        except WeightFormatError:
            return
        # no silent load: whatever loads holds the saved tensors
        for name in TENSOR_ORDER:
            assert loaded.params[name].tobytes() == model.params[name].tobytes()


class TestForwardStep:
    def test_pinned_ab_logits(self):
        model = init_random(ModelConfig(init_seed=42))
        logits = run_prompt(model, list(b"ab"))
        np.testing.assert_allclose(logits[:6], AB_LOGITS_HEAD, atol=1e-9)
        assert int(np.argmax(logits)) == AB_ARGMAX
        assert logits.max() == pytest.approx(AB_MAX, abs=1e-9)
        assert logits.sum() == pytest.approx(AB_SUM, abs=1e-7)

    def test_matches_reference_forward(self, small_model):
        rng = np.random.Generator(np.random.PCG64(31))
        tokens = rng.integers(0, small_model.config.vocab, size=9).tolist()
        ref = reference_forward(small_model, tokens)
        state = small_model.new_state()
        for pos, t in enumerate(tokens):
            logits = small_model.forward_step(state, moi.lookup(small_model.embedding_table, t))
            np.testing.assert_allclose(logits, ref[pos], atol=1e-10)

    def test_incremental_equals_recompute(self, small_model):
        rng = np.random.Generator(np.random.PCG64(17))
        inputs = [rng.normal(0, 0.3, size=small_model.config.dim).astype(np.float32) for _ in range(6)]
        state = small_model.new_state()
        incremental = [small_model.forward_step(state, x) for x in inputs]
        for prefix in range(1, len(inputs) + 1):
            fresh = small_model.new_state()
            logits = None
            for x in inputs[:prefix]:
                logits = small_model.forward_step(fresh, x)
            np.testing.assert_allclose(logits, incremental[prefix - 1], atol=1e-12)

    def test_causality(self, small_model):
        # logits at position t never move when later inputs change
        rng = np.random.Generator(np.random.PCG64(23))
        base = [rng.normal(0, 0.3, size=small_model.config.dim) for _ in range(5)]
        state = small_model.new_state()
        early = [small_model.forward_step(state, x) for x in base[:3]]
        state2 = small_model.new_state()
        early2 = []
        for i, x in enumerate(base):
            out = small_model.forward_step(state2, x if i < 3 else x * -2.0 + 1.0)
            if i < 3:
                early2.append(out)
        for a, b in zip(early, early2):
            np.testing.assert_array_equal(a, b)

    def test_determinism_across_runs(self, small_model):
        a = run_prompt(small_model, [1, 2, 3, 4])
        b = run_prompt(small_model, [1, 2, 3, 4])
        np.testing.assert_array_equal(a, b)

    def test_finite_for_convex_hull_inputs(self, small_model):
        rng = np.random.Generator(np.random.PCG64(29))
        table = small_model.embedding_table
        state = small_model.new_state()
        for _ in range(8):
            w = rng.dirichlet(np.ones(table.vocab))
            x = (w @ table.matrix.astype(np.float64)).astype(np.float32)
            logits = small_model.forward_step(state, x)
            assert np.all(np.isfinite(logits))

    def test_context_overflow(self):
        model = init_random(ModelConfig(vocab=8, dim=8, heads=2, layers=1, context=3, init_seed=0))
        state = model.new_state()
        x = moi.lookup(model.embedding_table, 0)
        for _ in range(3):
            model.forward_step(state, x)
        with pytest.raises(ValueError, match="context overflow"):
            model.forward_step(state, x)

    def test_default_state_holds_full_context(self, small_model):
        state = small_model.new_state()
        cfg = small_model.config
        assert state.capacity == cfg.context
        assert state.k_cache.shape == (cfg.layers, cfg.heads, cfg.context, cfg.dim // cfg.heads)
        x = moi.lookup(small_model.embedding_table, 0)
        for _ in range(cfg.context):
            small_model.forward_step(state, x)
        with pytest.raises(ValueError, match="context overflow"):
            small_model.forward_step(state, x)

    def test_forward_past_capacity_raises(self, small_model):
        state = small_model.new_state(4)
        assert state.k_cache.shape[2] == 4
        x = moi.lookup(small_model.embedding_table, 0)
        for _ in range(4):
            small_model.forward_step(state, x)
        with pytest.raises(ValueError, match="capacity is 4"):
            small_model.forward_step(state, x)
        assert state.length == 4

    def test_capacity_outside_context_rejected(self, small_model):
        for capacity in (0, small_model.config.context + 1):
            with pytest.raises(ValueError, match="capacity"):
                small_model.new_state(capacity)

    # int() read 2.9 as 2 positions and True as 1
    @pytest.mark.parametrize("capacity", [2.9, 3.0, True, "3"])
    def test_non_integer_capacity_rejected(self, small_model, capacity):
        with pytest.raises(TypeError):
            small_model.new_state(capacity)

    def test_numpy_integer_capacity_accepted(self, small_model):
        assert small_model.new_state(np.int64(3)).capacity == 3

    def test_sized_state_gives_identical_logits(self, small_model):
        rng = np.random.Generator(np.random.PCG64(41))
        inputs = [rng.normal(0, 0.3, size=small_model.config.dim) for _ in range(7)]
        full, sized = small_model.new_state(), small_model.new_state(len(inputs))
        for x in inputs:
            np.testing.assert_array_equal(small_model.forward_step(sized, x), small_model.forward_step(full, x))

    def test_fork_copies_and_leaves_source(self, small_model):
        rng = np.random.Generator(np.random.PCG64(43))
        inputs = [rng.normal(0, 0.3, size=small_model.config.dim) for _ in range(6)]
        source = small_model.new_state(3)
        for x in inputs[:3]:
            small_model.forward_step(source, x)
        k, v = source.k_cache.copy(), source.v_cache.copy()
        reference = small_model.new_state()
        for x in inputs[:3]:
            small_model.forward_step(reference, x)

        fork = source.fork(6)
        assert (fork.length, fork.capacity) == (3, 6)
        for x in inputs[3:]:
            np.testing.assert_array_equal(small_model.forward_step(fork, x), small_model.forward_step(reference, x))
        assert source.length == 3
        np.testing.assert_array_equal(source.k_cache, k)
        np.testing.assert_array_equal(source.v_cache, v)
        with pytest.raises(ValueError, match="below"):
            source.fork(2)

    def test_bad_input_shape(self, small_model):
        with pytest.raises(ValueError, match="shape"):
            small_model.forward_step(small_model.new_state(), np.zeros(3))
