"""Minimal deterministic decoder-only transformer with continuous inputs.

The forward pass takes an arbitrary d-vector per position, so the decode
loop can feed mixed embeddings; a discrete token is just the special case
of feeding its own embedding row.  Architecture: learned absolute
positions, pre-layer-norm causal self-attention and GELU MLP blocks with
residual connections, final layer norm, and a logit head tied to the
token-embedding table.

Models are random-seeded or loaded from a "TLM/1" weight file; there is
no training path.  Parameters are stored float32; the forward pass runs
in float64 through the numpy kernels (see the kernels module), so
repeated runs are bit-identical.  The KV cache is head-major,
(layers, heads, capacity, head_dim), where a state's capacity is the
number of positions it can hold: the model context by default, or just
what one request needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .embedding import EmbeddingTable

__all__ = [
    "ModelConfig",
    "DecoderState",
    "Model",
    "WeightFormatError",
    "WeightShapeError",
    "init_random",
    "save_weights",
    "load_weights",
]

_BIAS_STD = 0.02
# A flat 0.02 init leaves the tied head with near-uniform logits and the
# blocks too weak to transform the residual stream: every sampling-derived
# score saturates.  Scaling matrices ~1/sqrt(dim) keeps block outputs on
# the order of their inputs; embedding rows at 2/sqrt(dim) spread logits
# over a few units without pinning the distribution to one token; and
# position rows at 1/sqrt(dim) break the constant copy loops a random
# tied-head model otherwise falls into.
_MATRIX_STD_SCALE = 1.5
_EMB_STD_SCALE = 2.0
_POS_STD_SCALE = 1.0
_MATRIX_TENSORS = frozenset({"w_att", "w_proj", "w_fc", "w_out"})


class WeightFormatError(ValueError):
    """Raised when a weight file cannot be parsed."""


class WeightShapeError(WeightFormatError):
    """Raised when a tensor's payload disagrees with its declared shape."""


@dataclass(frozen=True)
class ModelConfig:
    vocab: int = 256
    dim: int = 64
    heads: int = 4
    layers: int = 2
    context: int = 256
    init_seed: int = 0

    def __post_init__(self):
        if self.vocab < 2:
            raise ValueError(f"vocab must be >= 2, got {self.vocab}")
        if self.dim < 1 or self.heads < 1 or self.layers < 1:
            raise ValueError("dim, heads, and layers must be positive")
        if self.dim % self.heads != 0:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.context < 1:
            raise ValueError(f"context must be >= 1, got {self.context}")


def _tensor_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    v, d, l, c = cfg.vocab, cfg.dim, cfg.layers, cfg.context
    inner = 4 * d
    return {
        "tok_emb": (v, d),
        "pos_emb": (c, d),
        "ln1_g": (l, d),
        "ln1_b": (l, d),
        "w_att": (l, d, 3 * d),
        "b_att": (l, 3 * d),
        "w_proj": (l, d, d),
        "b_proj": (l, d),
        "ln2_g": (l, d),
        "ln2_b": (l, d),
        "w_fc": (l, d, inner),
        "b_fc": (l, inner),
        "w_out": (l, inner, d),
        "b_out": (l, d),
        "lnf_g": (d,),
        "lnf_b": (d,),
    }


TENSOR_ORDER = tuple(_tensor_shapes(ModelConfig()).keys())
_GAIN_TENSORS = frozenset({"ln1_g", "ln2_g", "lnf_g"})


@dataclass
class DecoderState:
    """Per-session incremental cache: keys/values for processed positions,
    each (layers, heads, capacity, head_dim)."""

    k_cache: np.ndarray
    v_cache: np.ndarray
    length: int = 0

    @property
    def capacity(self) -> int:
        """How many positions the caches can hold."""
        return self.k_cache.shape[2]

    def fork(self, capacity: int) -> "DecoderState":
        """A fresh state holding a copy of this one's first `length`
        positions, with room for `capacity`.  The source is only read, so
        one state can seed many forks."""
        if capacity < self.length:
            raise ValueError(f"fork capacity {capacity} is below the state's length {self.length}")
        layers, heads, _, head_dim = self.k_cache.shape
        shape = (layers, heads, capacity, head_dim)
        fork = DecoderState(k_cache=np.zeros(shape), v_cache=np.zeros(shape), length=self.length)
        fork.k_cache[:, :, : self.length] = self.k_cache[:, :, : self.length]
        fork.v_cache[:, :, : self.length] = self.v_cache[:, :, : self.length]
        return fork


class Model:
    """Immutable parameter set plus the incremental forward step."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        shapes = _tensor_shapes(config)
        missing = set(shapes) - set(params)
        if missing:
            raise ValueError(f"missing tensors: {sorted(missing)}")
        for name, shape in shapes.items():
            arr = np.asarray(params[name], dtype=np.float32)
            if arr.shape != shape:
                raise WeightShapeError(f"tensor {name!r}: expected shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"tensor {name!r} contains non-finite entries")
        self.config = config
        self.params = {name: np.asarray(params[name], dtype=np.float32) for name in shapes}
        self.embedding_table = EmbeddingTable(self.params["tok_emb"])
        # the kernel's parameter record: float64 working copies in TENSOR_ORDER
        self.kernel_params = tuple(self.params[name].astype(np.float64) for name in TENSOR_ORDER)

    def new_state(self, capacity: int | None = None) -> DecoderState:
        """An empty state with room for `capacity` positions (default and
        upper limit: the model context)."""
        cfg = self.config
        capacity = cfg.context if capacity is None else int(capacity)
        if not (1 <= capacity <= cfg.context):
            raise ValueError(f"state capacity must lie in [1, {cfg.context}], got {capacity}")
        shape = (cfg.layers, cfg.heads, capacity, cfg.dim // cfg.heads)
        return DecoderState(k_cache=np.zeros(shape), v_cache=np.zeros(shape))

    def forward_step(self, state: DecoderState, input_vec: np.ndarray) -> np.ndarray:
        """Append one position fed with `input_vec`; return next-token logits.

        `input_vec` is any d-vector (a mixed embedding or a plain table
        row).  Returns float64 logits of length vocab.
        """
        cfg = self.config
        if state.length >= min(state.capacity, cfg.context):
            if state.length >= cfg.context:
                raise ValueError(f"context overflow: model capacity is {cfg.context} positions")
            raise ValueError(f"state full: its capacity is {state.capacity} positions")
        x = np.ascontiguousarray(np.asarray(input_vec, dtype=np.float64))
        if x.shape != (cfg.dim,):
            raise ValueError(f"input vector must have shape ({cfg.dim},), got {x.shape}")
        logits = kernels.decode_step(x, state.length, self.kernel_params, state.k_cache, state.v_cache)
        state.length += 1
        return logits


def init_random(config: ModelConfig) -> Model:
    """Seeded Gaussian init; identical seed gives a bit-identical model.

    All draws come from one PCG64 stream keyed by `config.init_seed`, in
    manifest order.  Biases are N(0, 0.02); layer-norm gains start at
    1.0; matrices, token embeddings, and position embeddings use stds of
    1.5, 2.0, and 1.0 over sqrt(dim), which keeps the next-token
    distributions mid-entropy instead of collapsing them to uniform or
    one-hot (either extreme starves the mixing math and the
    sampling-sensitive scores of signal).
    """
    rng = np.random.Generator(np.random.PCG64(config.init_seed))
    scale = 1.0 / np.sqrt(config.dim)
    params: dict[str, np.ndarray] = {}
    for name, shape in _tensor_shapes(config).items():
        if name in _GAIN_TENSORS:
            params[name] = np.ones(shape, dtype=np.float32)
            continue
        if name == "tok_emb":
            std = _EMB_STD_SCALE * scale
        elif name == "pos_emb":
            std = _POS_STD_SCALE * scale
        elif name in _MATRIX_TENSORS:
            std = _MATRIX_STD_SCALE * scale
        else:
            std = _BIAS_STD
        params[name] = rng.normal(0.0, std, size=shape).astype(np.float32)
    return Model(config, params)


# ---------------------------------------------------------------------------
# TLM/1 weight file: one JSON header line, then raw little-endian float32
# tensors back to back in manifest order, row-major.
# ---------------------------------------------------------------------------


def save_weights(model: Model, path: str | Path) -> None:
    manifest = []
    offset = 0
    blobs = []
    for name in TENSOR_ORDER:
        arr = model.params[name]
        blob = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        manifest.append({"name": name, "shape": list(arr.shape), "dtype": "f32", "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = {
        "format": "TLM/1",
        "config": {
            "vocab": model.config.vocab,
            "dim": model.config.dim,
            "heads": model.config.heads,
            "layers": model.config.layers,
            "context": model.config.context,
            "init_seed": model.config.init_seed,
        },
        "tensors": manifest,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        for blob in blobs:
            fh.write(blob)


def load_weights(path: str | Path) -> Model:
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise WeightFormatError("no header line found")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WeightFormatError(f"malformed header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != "TLM/1":
        marker = header.get("format") if isinstance(header, dict) else header
        raise WeightFormatError(f"unsupported format marker: {marker!r}")

    block = header.get("config")
    if not isinstance(block, dict) or not all(type(v) is int for v in block.values()):
        raise WeightFormatError(f"bad config block: expected an object of integers, got {block!r}")
    try:
        config = ModelConfig(**block)
    except (TypeError, ValueError) as exc:
        raise WeightFormatError(f"bad config block: {exc}") from exc

    tensors = header.get("tensors", [])
    if not isinstance(tensors, list) or not all(isinstance(e, dict) and type(e.get("name")) is str for e in tensors):
        raise WeightFormatError("tensors must be a list of objects with a string name")
    entries = {e["name"]: e for e in tensors}
    if len(entries) != len(tensors):
        raise WeightFormatError("tensor names must be unique")
    expected = _tensor_shapes(config)
    data = raw[newline + 1 :]
    params: dict[str, np.ndarray] = {}
    spans = []
    for name, shape in expected.items():
        entry = entries.get(name)
        if entry is None:
            raise WeightFormatError(f"tensor {name!r} missing from manifest")
        if entry.get("dtype") != "f32":
            raise WeightFormatError(f"tensor {name!r}: unsupported dtype {entry.get('dtype')!r}")
        # exact JSON types: int() would truncate an offset of 1.5 and read misaligned bytes
        declared = entry.get("shape")
        if type(declared) is not list or not all(type(n) is int for n in declared):
            raise WeightFormatError(f"tensor {name!r}: shape must be a list of integers, got {declared!r}")
        if tuple(declared) != shape:
            raise WeightShapeError(f"tensor {name!r}: expected shape {shape}, header declares {tuple(declared)}")
        offset = entry.get("offset")
        if type(offset) is not int or offset < 0:
            raise WeightFormatError(f"tensor {name!r}: offset must be a non-negative integer, got {offset!r}")
        count = int(np.prod(shape))
        end = offset + 4 * count
        if end > len(data):
            raise WeightFormatError(f"tensor {name!r}: file truncated (need bytes up to {end}, have {len(data)})")
        spans.append((offset, end, name))
        params[name] = np.frombuffer(data, dtype="<f4", count=count, offset=offset).reshape(shape).copy()
    spans.sort()
    for (_, end, name), (start, _, other) in zip(spans, spans[1:]):
        if start < end:
            raise WeightFormatError(f"tensor {other!r} at byte {start} overlaps tensor {name!r}, which ends at {end}")
    return Model(config, params)
