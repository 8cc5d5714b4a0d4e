"""Generation loop, per-step audit records, and model-free replay checks.

Each decode step samples a token the conventional way, then builds the
*input* for the next position from one of three feedback rules: the
sampled token's embedding row (standard), the truncated distribution used
verbatim as weights (direct_mixture), or the posterior-mean mixture
(moi).  The emitted token sequence is always the sampled discrete tokens;
only the fed-back representation changes.

A prompt's prefill can be done once and shared: `prefill` runs it
through the model, and `generate(..., prefix=...)` starts each of any
number of generations from a copy of that state.  Every decoder state is
sized to its request: prompt plus generated positions, less the last
token, which is never fed back.

Every step is recorded (token, entropy, distribution, weights, effective
mode) as one JSONL line, and `replay_verify` recomputes the weight math
from the recorded distributions alone: no model in the loop, so a trace
check is portable and exact at 1e-9.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import orjson

from . import mix_core
from .embedding import lookup, mix
from .mix_core import MixConfig
from .sampler import SamplerConfig, apply_temperature, make_rng, sample_position, top_p_truncate
from .toy_lm import DecoderState, Model

_TRACE_DUMPS = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
_INT = frozenset({int})
_NUMBER = frozenset({int, float})


class TraceFormatError(ValueError):
    """Raised when a trace file violates the JSONL schema."""


@dataclass(frozen=True)
class GenConfig:
    mix: MixConfig = field(default_factory=MixConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    max_tokens: int = 64
    stop_tokens: frozenset = frozenset()

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        object.__setattr__(self, "stop_tokens", frozenset(self.stop_tokens))


@dataclass(frozen=True)
class StepRecord:
    """Audit record for one decode step.

    `weights` is aligned with `support` (one weight per support id, zeros
    implied elsewhere).  `mode` is the feedback rule actually applied: a
    stop step under a mixing mode is recorded as "standard", with one-hot
    weights, so replay can reproduce it.
    """

    step: int
    token: int
    entropy: float
    support: np.ndarray
    probs: np.ndarray
    weights: np.ndarray
    mode: str


@dataclass
class GenerationResult:
    tokens: list[int]
    records: list[StepRecord]
    prefill_seconds: float
    decode_seconds: float
    prompt_tokens: int

    @property
    def generated_tokens(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class ReplayReport:
    passed: bool
    steps: int
    max_entropy_dev: float
    max_weight_dev: float
    first_failed_step: int | None = None

    def summary(self) -> str:
        status = "pass" if self.passed else f"FAIL at step {self.first_failed_step}"
        return (
            f"replay {status}: {self.steps} steps, "
            f"max |dH| = {self.max_entropy_dev:.3e}, max |dw| = {self.max_weight_dev:.3e}"
        )


@dataclass(frozen=True, eq=False)
class Prefill:
    """A prompt already run through `model`: the decoder state after its
    last position (sized to the prompt) and the logits for the first
    generated token.  Generations fork `state` and never write to it, so
    one Prefill can start any number of them."""

    model: Model
    prompt: tuple
    state: DecoderState
    logits: np.ndarray


def check_prompt(model: Model, prompt) -> list[int]:
    """`prompt` as a list of ints; ValueError if it is empty or holds an id
    outside the vocabulary."""
    prompt = [int(t) for t in prompt]
    vocab = model.config.vocab
    if not prompt:
        raise ValueError("prompt must contain at least one token")
    if any(t < 0 or t >= vocab for t in prompt):
        raise ValueError(f"prompt token outside vocabulary of size {vocab}")
    return prompt


def _feed_prompt(model: Model, state, prompt: list[int]) -> np.ndarray:
    """Feed the prompt's embedding rows; return the logits after the last."""
    table = model.embedding_table
    for token in prompt:
        logits = model.forward_step(state, lookup(table, token))
    return logits


def prefill(model: Model, prompt) -> Prefill:
    """Run `prompt` through `model` once, for generations to start from."""
    prompt = check_prompt(model, prompt)
    if len(prompt) > model.config.context:
        raise ValueError(f"prompt ({len(prompt)}) exceeds model context {model.config.context}")
    state = model.new_state(len(prompt))
    logits = _feed_prompt(model, state, prompt)
    return Prefill(model=model, prompt=tuple(prompt), state=state, logits=logits)


def start_state(model: Model, prompt: list[int], capacity: int, prefix: Prefill | None = None):
    """The decoder state after `prompt`, with room for `capacity`
    positions, and the logits for the next token.  Without `prefix` the
    prompt is run through the model; with it, `prefix` must come from the
    same model object and the same prompt, and its state is forked."""
    if prefix is None:
        state = model.new_state(capacity)
        return state, _feed_prompt(model, state, prompt)
    if prefix.model is not model:
        raise ValueError("prefix was prefilled by another model")
    if prefix.prompt != tuple(prompt):
        raise ValueError(f"prefix was prefilled for prompt {list(prefix.prompt)}, not {prompt}")
    return prefix.state.fork(capacity), prefix.logits


def generate(model: Model, prompt, cfg: GenConfig, prefix: Prefill | None = None) -> GenerationResult:
    """Run the decode loop: sample, weight, mix, feed back.

    `prompt` is a nonempty sequence of token ids; prompt positions are fed
    as plain embedding rows (mixing applies only to generated positions).
    Generation stops after `cfg.max_tokens` tokens or right after a stop
    token is emitted; a stop token is recorded, in mode "standard" with
    one-hot weights, but never fed back.

    `prefix`, from `prefill(model, prompt)`, skips running the prompt: the
    loop starts from a fork of its state and its logits, with the same
    result as without it.  A prefix made by another model object or for
    another prompt raises ValueError.  `prefill_seconds` covers the
    allocation and the prompt run, or the fork.
    """
    prompt = check_prompt(model, prompt)
    vocab = model.config.vocab
    if len(prompt) + cfg.max_tokens > model.config.context:
        raise ValueError(
            f"prompt ({len(prompt)}) + max_tokens ({cfg.max_tokens}) exceeds "
            f"model context {model.config.context}"
        )

    rng = make_rng(cfg.sampler.seed)
    t0 = time.perf_counter()
    # the last generated token is never fed, so it needs no position
    state, logits = start_state(model, prompt, len(prompt) + cfg.max_tokens - 1, prefix)
    prefill_seconds = time.perf_counter() - t0

    matrix = model.embedding_table.matrix
    tokens: list[int] = []
    records: list[StepRecord] = []
    t1 = time.perf_counter()
    for step in range(cfg.max_tokens):
        trunc = top_p_truncate(apply_temperature(logits, cfg.sampler.temperature), cfg.sampler.top_p)
        pos = sample_position(trunc, rng)
        ids, probs = trunc
        token = int(ids[pos])
        entropy = mix_core.entropy_of(probs, vocab)
        applied_mode = "standard" if token in cfg.stop_tokens else cfg.mix.mode
        weights = mix_core.feedback_weights(applied_mode, probs, pos, entropy, cfg.mix.beta)

        tokens.append(token)
        records.append(
            StepRecord(
                step=step,
                token=token,
                entropy=entropy,
                support=ids.copy(),
                probs=probs.copy(),
                weights=weights,
                mode=applied_mode,
            )
        )
        if token in cfg.stop_tokens or step == cfg.max_tokens - 1:
            break
        fed = matrix[token].copy() if applied_mode == "standard" else mix(matrix, ids, weights)
        logits = model.forward_step(state, fed)
    decode_seconds = time.perf_counter() - t1

    return GenerationResult(
        tokens=tokens,
        records=records,
        prefill_seconds=prefill_seconds,
        decode_seconds=decode_seconds,
        prompt_tokens=len(prompt),
    )


# ---------------------------------------------------------------------------
# Trace JSONL
# ---------------------------------------------------------------------------


def _record_to_json(rec: StepRecord) -> bytes:
    """One trace line, newline included.  The arrays go to orjson as
    contiguous int64/float64, so a float32 or strided array is written at
    its float64 value; orjson would write NaN and inf as null, so a
    non-finite H, prob or weight raises ValueError instead."""
    support = np.ascontiguousarray(rec.support, dtype=np.int64)
    probs = np.ascontiguousarray(rec.probs, dtype=np.float64)
    weights = np.ascontiguousarray(rec.weights, dtype=np.float64)
    entropy = float(rec.entropy)
    if not (math.isfinite(entropy) and np.isfinite(probs).all() and np.isfinite(weights).all()):
        raise ValueError(f"step {rec.step}: non-finite H, probs or weights cannot be written")
    return orjson.dumps(
        {
            "step": rec.step,
            "token": rec.token,
            "H": entropy,
            "support": support,
            "probs": probs,
            "weights": weights,
            "mode": rec.mode,
        },
        option=_TRACE_DUMPS,
    )


def write_trace(result: GenerationResult, path: str | Path) -> None:
    """One StepRecord per line: compact JSON with shortest round-trip
    floats.  A record that cannot be written raises ValueError, after the
    lines before it."""
    with open(path, "wb") as fh:
        for rec in result.records:
            fh.write(_record_to_json(rec))


def read_trace(path: str | Path) -> list[StepRecord]:
    """The StepRecords of a trace file, checked line by line; any line that
    breaks the schema raises TraceFormatError naming it."""
    records: list[StepRecord] = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = orjson.loads(line)
            except orjson.JSONDecodeError as exc:
                raise TraceFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
            try:
                support, probs, weights = obj["support"], obj["probs"], obj["weights"]
                # exact JSON types: int() and float() would coerce 1.7, "3" and
                # true, and orjson reads an integer beyond 64 bits as a float
                if not (
                    type(obj["step"]) is int
                    and type(obj["token"]) is int
                    and _INT.issuperset(map(type, support))
                ):
                    raise TypeError("step, token and support ids must be integers")
                if not (
                    type(obj["H"]) in _NUMBER
                    and _NUMBER.issuperset(map(type, probs))
                    and _NUMBER.issuperset(map(type, weights))
                ):
                    raise TypeError("H, probs and weights must be numbers")
                support = np.asarray(support, dtype=np.int64)
                probs = np.asarray(probs, dtype=np.float64)
                weights = np.asarray(weights, dtype=np.float64)
                rec = StepRecord(
                    step=obj["step"],
                    token=obj["token"],
                    entropy=float(obj["H"]),
                    support=support,
                    probs=probs,
                    weights=weights,
                    mode=str(obj["mode"]),
                )
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise TraceFormatError(f"line {lineno}: bad record: {exc}") from exc
            if rec.mode not in mix_core.MODES:
                raise TraceFormatError(f"line {lineno}: unknown mode {rec.mode!r}")
            if probs.shape != support.shape or weights.shape != support.shape:
                raise TraceFormatError(f"line {lineno}: probs/weights not aligned with support")
            try:
                mix_core.check_probs(probs)
            except ValueError as exc:
                raise TraceFormatError(f"line {lineno}: probs: {exc}") from exc
            if not (0.0 <= rec.entropy <= 1.0):
                raise TraceFormatError(f"line {lineno}: H={rec.entropy} outside [0, 1]")
            # a NaN weight fails both comparisons; check_probs made the arrays nonempty
            if not (weights.min() >= 0.0 and weights.max() < math.inf):
                raise TraceFormatError(f"line {lineno}: weights must be finite and non-negative")
            ordered = np.sort(support)
            if ordered[0] < 0:
                raise TraceFormatError(f"line {lineno}: negative support id")
            if np.any(ordered[1:] == ordered[:-1]):
                raise TraceFormatError(f"line {lineno}: duplicate support ids")
            if not np.any(support == rec.token):
                raise TraceFormatError(f"line {lineno}: token {rec.token} not in support")
            records.append(rec)
    return records


def replay_verify(
    trace: list[StepRecord],
    cfg: GenConfig,
    vocab_size: int = 256,
    tolerance: float = 1e-9,
) -> ReplayReport:
    """Recompute entropy and weights from each recorded distribution.

    The recorded `mode` must match `cfg.mix.mode`, except that "standard"
    records are always admissible (stop steps record them).  The
    trace schema does not carry the vocabulary size, so the entropy
    normalizer's `vocab_size` is a parameter here.  Replay runs the
    engine's own `entropy_of` and `feedback_weights` on the support-aligned
    arrays; a record whose arrays are not aligned, whose support lacks its
    token or leaves [0, vocab_size), or whose probs are not a distribution
    raises TraceFormatError.
    """
    max_h = 0.0
    max_w = 0.0
    first_bad: int | None = None
    for rec in trace:
        if rec.mode != cfg.mix.mode and rec.mode != "standard":
            raise ValueError(
                f"step {rec.step}: trace mode {rec.mode!r} incompatible with config mode {cfg.mix.mode!r}"
            )
        support = rec.support
        if rec.probs.shape != support.shape or rec.weights.shape != support.shape:
            raise TraceFormatError(f"step {rec.step}: probs/weights not aligned with support")
        hits = np.flatnonzero(support == rec.token)
        if not hits.size:
            raise TraceFormatError(f"step {rec.step}: token {rec.token} not in support")
        if support.min() < 0 or support.max() >= vocab_size:
            raise TraceFormatError(f"step {rec.step}: support ids outside vocabulary of size {vocab_size}")
        try:
            p = mix_core.check_probs(rec.probs)
        except ValueError as exc:
            raise TraceFormatError(f"step {rec.step}: probs: {exc}") from exc
        h = mix_core.entropy_of(p, vocab_size)
        expected = mix_core.feedback_weights(rec.mode, p, hits[0], h, cfg.mix.beta)
        h_dev = abs(h - rec.entropy)
        w_dev = float(np.max(np.abs(expected - rec.weights)))
        # np.maximum keeps a NaN deviation, where max() would drop it
        max_h = np.maximum(max_h, h_dev)
        max_w = np.maximum(max_w, w_dev)
        # NaN deviations fail too
        if not (h_dev <= tolerance and w_dev <= tolerance) and first_bad is None:
            first_bad = rec.step
    return ReplayReport(
        passed=first_bad is None,
        steps=len(trace),
        max_entropy_dev=float(max_h),
        max_weight_dev=float(max_w),
        first_failed_step=first_bad,
    )
