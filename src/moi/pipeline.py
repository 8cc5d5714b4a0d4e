"""Generation loop, per-step audit records, and model-free replay checks.

Each decode step samples a token the conventional way, then builds the
*input* for the next position from one of three feedback rules: the
sampled token's embedding row (standard), the truncated distribution used
verbatim as weights (direct_mixture), or the posterior-mean mixture
(moi).  The emitted token sequence is always the sampled discrete tokens;
only the fed-back representation changes.

Every request starts from a Prefill: `generate` forks its state to the
request's size (prompt + new tokens <= context, checked before any
forward) and starts from its first distribution, truncated once per
(T, top_p); without a prefix it prefills the prompt first.  One function
runs prompts (`_greedy_rows`; `prefill` is it for one token): those of
one length are lockstep rows through one batched forward (`_forward_rows`,
byte-identical to one row at a time) into K and V buffers whose slots are
the rows' caches, then greedy-decoded.  One set-up (`_decode_prefills`)
forks Prefills into the rows of the one decode loop (`_decode`):
`generate` decodes one row, and `prefetch` the Prefills of one prompt
length at once, leaving each the result that the `generate` after it
takes.  The sampler runs where the forward returns: 1-D on a lone row,
one (B, V) pass on a batched step.  Decodes that share a config (a grid
trial's) draw its uniforms once.

Every step is recorded (token, entropy, distribution, weights, effective
mode) as one JSONL line, and `replay_verify` recomputes the weight math
from the recorded distributions alone: no model in the loop, so a trace
check is portable and exact at 1e-9.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels, mix_core
# lookup has no caller here, but the traced benchmark run wraps pipeline.lookup
from .embedding import lookup, mix
from .jsonio import INT, NUMBER, dump, has_type, load
from .mix_core import MixConfig
from .sampler import (
    SamplerConfig,
    TruncatedDistribution,
    apply_temperature,
    make_rng,
    sample_position,
    top_p_truncate,
    truncate_rows,
)
from .toy_lm import DecoderState, Model


class TraceFormatError(ValueError):
    """Raised when a trace file violates the JSONL schema."""


@dataclass(frozen=True)
class GenConfig:
    """A decode's settings: feedback rule, sampler, token budget and stop
    tokens.  `draws` holds its uniforms, drawn once per config."""

    mix: MixConfig = field(default_factory=MixConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    max_tokens: int = 64
    stop_tokens: frozenset = frozenset()

    def __post_init__(self):
        # not int(): a float or bool count or token id raises TypeError
        if isinstance(self.max_tokens, bool):
            raise TypeError("max_tokens must be an integer, not a bool")
        object.__setattr__(self, "max_tokens", operator.index(self.max_tokens))
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        object.__setattr__(self, "stop_tokens", frozenset(map(mix_core.token_id, self.stop_tokens)))

    @functools.cached_property
    def draws(self) -> np.ndarray:
        """Read-only uniforms, drawn on first use: step k of every decode
        with this config takes the k-th float64 of PCG64(seed)."""
        draws = make_rng(self.sampler.seed).random(self.max_tokens)
        draws.flags.writeable = False
        return draws


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
    """A prompt already run through `model`, where every request starts:
    the decoder state after its last position (sized to the prompt) and
    the logits for the first generated token.  Generations fork `state`
    and never write to it, so one Prefill can start any number of them.

    It keeps the truncated distribution and entropy of `logits` for each
    (T, top_p) used, and at most one result `prefetch` decoded for the next
    `generate` with an equal config; so it is not to be shared by threads."""

    model: Model
    prompt: tuple
    state: DecoderState
    logits: np.ndarray
    _first: dict = field(default_factory=dict, init=False, repr=False)
    _pending: dict = field(default_factory=dict, init=False, repr=False)

    def _first_token(self, sampler: SamplerConfig) -> tuple[TruncatedDistribution, float]:
        """The truncated distribution and entropy of `logits` at `sampler`'s
        T and top_p, computed once per pair; the probs are the caller's copy."""
        key = (sampler.temperature, sampler.top_p)
        first = self._first.get(key)
        if first is None:
            dist, entropy = _truncated(self.logits, sampler, self.model.config.vocab)
            # trimmed ids: a view would keep the whole argsort alive
            first = self._first[key] = (TruncatedDistribution(dist.ids.copy(), dist.probs), entropy)
        (ids, probs), entropy = first
        return TruncatedDistribution(ids, probs.copy()), entropy


def check_prompt(model: Model, prompt) -> list[int]:
    """`prompt` as a list of ints; TypeError if it holds a non-integer or a
    bool, ValueError if it is empty or holds an id outside the vocabulary."""
    prompt = [mix_core.token_id(t) for t in prompt]
    vocab = model.config.vocab
    if not prompt:
        raise ValueError("prompt must contain at least one token")
    if any(t < 0 or t >= vocab for t in prompt):
        raise ValueError(f"prompt token outside vocabulary of size {vocab}")
    return prompt


def prefill(model: Model, prompt) -> Prefill:
    """Run `prompt` through `model` once, for generations to start from:
    `_greedy_rows` of one prompt and one token."""
    [(_, start)] = _greedy_rows(model, [prompt], 1, frozenset()).values()
    return start


def _capacity(model: Model, prompt, new_tokens: int) -> int:
    """The positions a request for `new_tokens` after `prompt` needs: the
    last token is never fed, so it gets no position.  ValueError if
    new_tokens < 1 or the request exceeds the model context."""
    context = model.config.context
    if isinstance(new_tokens, bool):
        raise TypeError("a decode's token count must be an integer, not a bool")
    if operator.index(new_tokens) < 1:
        raise ValueError(f"a decode needs at least 1 new token, got {new_tokens}")
    if len(prompt) + new_tokens > context:
        raise ValueError(f"prompt ({len(prompt)}) + max_tokens ({new_tokens}) exceeds model context {context}")
    return len(prompt) + new_tokens - 1


def _check_prefix(model: Model, prompt: list[int], prefix: Prefill) -> None:
    """ValueError unless `prefix` was prefilled by `model` for `prompt`."""
    if prefix.model is not model:
        raise ValueError("prefix was prefilled by another model")
    if prefix.prompt != tuple(prompt):
        raise ValueError(f"prefix was prefilled for prompt {list(prefix.prompt)}, not {prompt}")


def generate(model: Model, prompt, cfg: GenConfig, prefix: Prefill | None = None) -> GenerationResult:
    """Run the decode loop on one row: sample, weight, mix, feed back.

    `prompt` is a nonempty sequence of token ids; prompt positions are fed
    as plain embedding rows (mixing applies only to generated positions).
    Generation stops after `cfg.max_tokens` tokens or right after a stop
    token is emitted; a stop token is recorded, in mode "standard" with
    one-hot weights, but never fed back.

    The loop starts from a fork of a Prefill's state and its first
    distribution: `prefix`, from `prefill(model, prompt)`, or else the
    prompt's own, made once the request is checked, with the same result.
    A request beyond the model context (`_capacity`), or a prefix made by
    another model object or for another prompt, raises ValueError before
    any forward.  A result `prefetch` left with the prefix for a config
    equal to `cfg` is returned, once, with no decode; its times are its
    batch's, split evenly over the rows.  Otherwise `prefill_seconds`
    covers the prefill, if any, and the fork.
    """
    prompt = check_prompt(model, prompt)
    if prefix is not None:
        _check_prefix(model, prompt, prefix)
        result = prefix._pending.pop(cfg, None)
        if result is not None:
            return result
    t0 = time.perf_counter()
    if prefix is None:
        _capacity(model, prompt, cfg.max_tokens)
        prefix = prefill(model, prompt)
    return _decode_prefills([prefix], cfg, t0)[0]


# rows per `prefetch` call to `_decode`: bounds the rows of its K and V buffers
FILL_ROWS = 32


def prefetch(prefixes, cfg: GenConfig) -> None:
    """Decode, for each distinct Prefill p in `prefixes`, the result of
    `generate(p.model, p.prompt, cfg, prefix=p)` and leave it with p for
    that call to take; it replaces any result p held.  Prefills of one
    model and prompt length are the rows of one decode loop, split evenly
    into calls of at most FILL_ROWS, each with one K and one V buffer for its
    rows' caches; a group of one is left to `generate`.  The Prefills'
    states are only read."""
    groups: dict = {}
    for p in dict.fromkeys(prefixes):
        p._pending.clear()
        groups.setdefault((id(p.model), len(p.prompt)), []).append(p)
    for group in groups.values():
        calls = -(-len(group) // FILL_ROWS) if len(group) > 1 else 0
        for i in range(calls):
            part = group[i::calls]
            for p, result in zip(part, _decode_prefills(part, cfg, time.perf_counter())):
                p._pending[cfg] = result


def _decode_prefills(prefixes: list[Prefill], cfg: GenConfig, t0: float) -> list[GenerationResult]:
    """The one decode set-up: fork each Prefill (of one model and prompt
    length) to the request's size, start it from its first distribution and
    run the forks as the rows of one `_decode` loop.  A result's
    `prefill_seconds` (from `t0` to the forks' end) and `decode_seconds` are
    the call's times divided by its rows."""
    model = prefixes[0].model
    states = [p.state.fork(_capacity(model, p.prompt, cfg.max_tokens)) for p in prefixes]
    t1 = time.perf_counter()
    rows = [_Row(state, *p._first_token(cfg.sampler), []) for state, p in zip(states, prefixes)]
    _decode(model, cfg, rows)
    seconds = (t1 - t0) / len(rows), (time.perf_counter() - t1) / len(rows)
    return [GenerationResult([rec.token for rec in row.records], row.records, *seconds, len(p.prompt))
            for p, row in zip(prefixes, rows)]


def _truncated(logits: np.ndarray, sampler: SamplerConfig, vocab: int) -> tuple[TruncatedDistribution, float]:
    """The 1-D sampler: one row's truncated distribution and its entropy."""
    dist = top_p_truncate(apply_temperature(logits, sampler.temperature), sampler.top_p)
    return dist, mix_core.entropy_of(dist.probs, vocab)


@dataclass(slots=True, eq=False)
class _Row:
    """A generation `_decode` steps with its own `state`: it samples from
    `dist`, whose entropy is `entropy`, and appends to `records`."""

    state: DecoderState
    dist: TruncatedDistribution
    entropy: float
    records: list[StepRecord]


def _decode(model: Model, cfg: GenConfig, rows: list[_Row]) -> None:
    """The decode loop: step `rows`, all at one position, in lockstep for
    `cfg`; step k of every row takes `cfg.draws[k]`.  A row samples,
    weights and records, then ends or feeds a vector.  One fed row runs
    `model.forward_step` and the 1-D sampler, more `_forward_rows` and
    `truncate_rows`."""
    table, vocab = model.embedding_table, model.config.vocab
    mode, beta, stop_tokens = cfg.mix.mode, cfg.mix.beta, cfg.stop_tokens
    temperature, top_p = cfg.sampler.temperature, cfg.sampler.top_p
    last, draws = cfg.max_tokens - 1, cfg.draws
    feeding, held = rows, ()
    for step in range(cfg.max_tokens):
        live, feeding, fed = feeding, [], []
        for row in live:
            ids, probs = dist = row.dist
            pos = sample_position(dist, draws[step])
            token = int(ids[pos])
            stop = token in stop_tokens
            applied_mode = "standard" if stop else mode
            weights = mix_core.feedback_weights(applied_mode, probs, pos, row.entropy, beta)
            row.records.append(StepRecord(step, token, row.entropy, ids.copy(), probs, weights, applied_mode))
            if stop or step == last:
                continue
            fed.append(table.matrix[token] if applied_mode == "standard" else mix(table.matrix64, ids, weights))
            feeding.append(row)
        if len(feeding) == 1:
            outs = [_truncated(model.forward_step(feeding[0].state, fed[0]), cfg.sampler, vocab)]
        elif feeding:
            logits, held = _forward_rows(model, [row.state for row in feeding], fed, held)
            outs = [(d, mix_core.entropy_of(d.probs, vocab)) for d in truncate_rows(logits, temperature, top_p)]
        else:
            return
        for row, (dist, entropy) in zip(feeding, outs):
            row.dist, row.entropy = dist, entropy


def _forward_rows(model: Model, states: list, x: list, held: tuple) -> tuple:
    """Feed x[i] to states[i], all at one position: one `kernels.decode_rows`
    into K and V buffers whose slot i is states[i]'s cache (the state views
    it), or `model.forward_step` for a lone row.  Returns the (B, vocab)
    logits and `held`, the (states, K, V) to pass to the next call: the
    buffers are stacked again only when fewer states come (rows stopped),
    and a stopped row copies its slot, so no old buffer stays alive."""
    if len(states) == 1:
        return model.forward_step(states[0], x[0])[None], held
    old = held[0] if held else ()
    if len(states) != len(old):
        kept = set(map(id, states))
        for state in old:
            if id(state) not in kept:
                state.k_cache, state.v_cache = state.k_cache.copy(), state.v_cache.copy()
        held = states, np.array([s.k_cache for s in states]), np.array([s.v_cache for s in states])
        for state, k, v in zip(*held):
            state.k_cache, state.v_cache = k, v
    logits = kernels.decode_rows(np.array(x, np.float64)[:, None], states[0].length, model.kernel_params, *held[1:])
    for state in states:
        state.length += 1
    return logits, held


def _greedy_rows(model: Model, prompts, budget: int, stop_tokens: frozenset) -> dict:
    """{prompt: (reference, Prefill)} for the distinct `prompts`: the one
    prompt run and the one greedy loop.  `prefill` is it for one prompt and
    one token, `experiments.greedy_decode` for one prompt.  Each prompt is
    checked (`check_prompt`, `_capacity` for `budget` tokens) before any
    forward.  The prompts of one length are lockstep rows, one
    `_forward_rows` a position: the prompt, a Prefill snapshot (the state
    forked to the prompt's length, a copy of the logits row), then argmax
    steps to a stop token or `budget`."""
    groups: dict = {}
    for prompt in prompts:
        prompt = check_prompt(model, prompt)
        state = model.new_state(_capacity(model, prompt, budget))
        groups.setdefault(len(prompt), []).append((tuple(prompt), state, []))
    table, out = model.embedding_table.matrix, {}
    for n, rows in groups.items():
        held = ()
        for t in range(n):
            logits, held = _forward_rows(model, [s for _, s, _ in rows], [table[p[t]] for p, _, _ in rows], held)
        for (prompt, state, ref), row in zip(rows, logits):
            out[prompt] = ref, Prefill(model, prompt, state.fork(n), row.copy())
        for step in range(budget):
            for (_, _, ref), token in zip(rows, logits.argmax(axis=1).tolist()):
                ref.append(token)
            rows = [(p, s, ref) for p, s, ref in rows if ref[-1] not in stop_tokens and step < budget - 1]
            if not rows:
                break
            logits, held = _forward_rows(model, [s for _, s, _ in rows], [table[ref[-1]] for _, _, ref in rows], held)
    return out


# ---------------------------------------------------------------------------
# Trace JSONL
# ---------------------------------------------------------------------------


def _record_to_json(rec: StepRecord) -> bytes:
    """One trace line, newline included.  The arrays go to `jsonio.dump`
    as contiguous int64/float64, so a float32 or strided array is written
    at its float64 value; it would write NaN and inf as null, so a
    non-finite H, prob or weight raises ValueError instead."""
    support = np.ascontiguousarray(rec.support, dtype=np.int64)
    probs = np.ascontiguousarray(rec.probs, dtype=np.float64)
    weights = np.ascontiguousarray(rec.weights, dtype=np.float64)
    entropy = float(rec.entropy)
    finite = np.logical_and.reduce
    if not (math.isfinite(entropy) and finite(np.isfinite(probs)) and finite(np.isfinite(weights))):
        raise ValueError(f"step {rec.step}: non-finite H, probs or weights cannot be written")
    return dump(
        {
            "step": rec.step,
            "token": rec.token,
            "H": entropy,
            "support": support,
            "probs": probs,
            "weights": weights,
            "mode": rec.mode,
        }
    )


def write_trace(result: GenerationResult, path: str | Path) -> None:
    """One StepRecord per line: compact JSON with shortest round-trip
    floats.  A record that `read_trace` would refuse (`_check_record`) or
    that cannot be written raises ValueError, after the lines before it."""
    with open(path, "wb") as fh:
        for rec in result.records:
            _check_record(rec, f"step {rec.step}")
            fh.write(_record_to_json(rec))


def _check_record(rec: StepRecord, where: str, vocab_size: int | None = None) -> tuple[np.ndarray, int]:
    """The one rule set of a StepRecord, shared by `write_trace`,
    `read_trace` and `replay_verify`: its checked float64 probs and its
    token's index in the support, or TraceFormatError naming `where`.  A
    NaN weight passes, so replay reports it as a deviation (`write_trace`
    refuses it); given `vocab_size`, ids lie below it."""
    if rec.mode not in mix_core.MODES:
        raise TraceFormatError(f"{where}: unknown mode {rec.mode!r}")
    support = rec.support
    if rec.probs.shape != support.shape or rec.weights.shape != support.shape:
        raise TraceFormatError(f"{where}: probs/weights not aligned with support")
    try:
        p = mix_core.check_probs(rec.probs)
    except ValueError as exc:
        raise TraceFormatError(f"{where}: probs: {exc}") from exc
    if not (0.0 <= rec.entropy <= 1.0):
        raise TraceFormatError(f"{where}: H={rec.entropy} outside [0, 1]")
    # fmin skips a NaN; check_probs made the arrays 1-D and nonempty
    if np.fmin.reduce(rec.weights) < 0.0:
        raise TraceFormatError(f"{where}: weights must be non-negative")
    ordered = support.copy()
    ordered.sort()
    if vocab_size is not None and not (0 <= ordered[0] and ordered[-1] < vocab_size):
        raise TraceFormatError(f"{where}: support ids outside vocabulary of size {vocab_size}")
    if ordered[0] < 0:
        raise TraceFormatError(f"{where}: negative support id")
    if np.logical_or.reduce(ordered[1:] == ordered[:-1]):
        raise TraceFormatError(f"{where}: duplicate support ids")
    hits = support == rec.token
    if not np.logical_or.reduce(hits):
        raise TraceFormatError(f"{where}: token {rec.token} not in support")
    # argmax: the index of the first (and only) hit
    return p, int(hits.argmax())


def read_trace(path: str | Path) -> list[StepRecord]:
    """The StepRecords of a trace file, checked line by line (exact JSON
    types, then `_check_record`); a bad line raises TraceFormatError naming it."""
    records: list[StepRecord] = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            obj = load(line, TraceFormatError, f"line {lineno}: invalid JSON")
            try:
                support, probs, weights = obj["support"], obj["probs"], obj["weights"]
                # exact JSON types: int() and float() would coerce 1.7, "3" and
                # true, and orjson reads an integer beyond 64 bits as a float
                if not (type(obj["step"]) is int and type(obj["token"]) is int and has_type(support, 1, INT)):
                    raise TypeError("step, token and support ids must be integers")
                if not (type(obj["H"]) in NUMBER and has_type(probs, 1, NUMBER) and has_type(weights, 1, NUMBER)):
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
            _check_record(rec, f"line {lineno}")
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
    arrays.  A record that breaks `read_trace`'s rules (`_check_record`) or
    whose support leaves [0, vocab_size) raises TraceFormatError.
    """
    max_h = 0.0
    max_w = 0.0
    first_bad: int | None = None
    for rec in trace:
        if rec.mode != cfg.mix.mode and rec.mode != "standard":
            raise ValueError(
                f"step {rec.step}: trace mode {rec.mode!r} incompatible with config mode {cfg.mix.mode!r}"
            )
        p, pos = _check_record(rec, f"step {rec.step}", vocab_size)
        h = mix_core.entropy_of(p, vocab_size)
        expected = mix_core.feedback_weights(rec.mode, p, pos, h, cfg.mix.beta)
        h_dev = abs(h - rec.entropy)
        dev = expected - rec.weights
        w_dev = float(np.maximum.reduce(np.abs(dev, out=dev)))
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
