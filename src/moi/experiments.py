"""Hyperparameter grid runs, best-of-N tuning curves, throughput bench.

The built-in scoring task, greedy_recovery, is the fraction of sampled
generations that exactly reproduce the model's greedy decode of the same
prompt.  It needs no external data or judge, is a pure function of the
seeds, and moves monotonically with the sampling knobs (sharper sampling
and closer-to-one-hot feedback both raise it), which is what the grid and
best-of-N machinery need to be exercised end to end.

Grid rows land in a CSV with the fixed header
``mode,beta,top_p,temperature,seed,score,tokens_per_s``.  Rows are
streamed to a ``.partial`` file and atomically renamed at the end, so a
crashed grid leaves its completed rows behind.  The ``tokens_per_s``
column is left empty unless rate measurement is requested: wall-clock
rates would break the byte-identical-rerun guarantee the rest of the row
set carries.
"""

from __future__ import annotations

import csv
import gc
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .mix_core import MODES, MixConfig
from .pipeline import GenConfig, Prefill, check_prompt, generate, prefill, start_state
from .sampler import SamplerConfig
from .toy_lm import Model, load_weights

RESULTS_HEADER = ("mode", "beta", "top_p", "temperature", "seed", "score", "tokens_per_s")

# grid-search defaults; single-knob analyses hold the others at the
# universal setting beta=1, top_p=0.95, T=0.6
DEFAULT_BETAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
DEFAULT_TOP_PS = (0.4, 0.6, 0.8, 0.95)
DEFAULT_TEMPERATURES = (0.6, 0.8, 1.0)
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
UNIVERSAL_DEFAULTS = {"beta": 1.0, "top_p": 0.95, "temperature": 0.6}


@dataclass(frozen=True)
class TaskSpec:
    """What a grid trial scores.

    kind "greedy_recovery" is built in; kind "external_scorer" calls the
    user-supplied `scorer(model, cfg, prompts, budget) -> float in [0,1]`.
    `prompts` is a nonempty tuple of token-id tuples.
    """

    model: Model | str | Path
    prompts: tuple
    budget: int
    kind: str = "greedy_recovery"
    stop_tokens: frozenset = frozenset()
    scorer: object = None

    def __post_init__(self):
        if self.kind not in ("greedy_recovery", "external_scorer"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.kind == "external_scorer" and not callable(self.scorer):
            raise ValueError("external_scorer task needs a callable `scorer`")
        prompts = tuple(tuple(int(t) for t in p) for p in self.prompts)
        if not prompts:
            raise ValueError("prompt set must be nonempty")
        object.__setattr__(self, "prompts", prompts)
        object.__setattr__(self, "stop_tokens", frozenset(self.stop_tokens))

    def resolve_model(self) -> Model:
        if isinstance(self.model, Model):
            return self.model
        return load_weights(self.model)


@dataclass(frozen=True)
class GridSpec:
    task: TaskSpec
    betas: tuple = DEFAULT_BETAS
    top_ps: tuple = DEFAULT_TOP_PS
    temperatures: tuple = DEFAULT_TEMPERATURES
    modes: tuple = ("moi",)
    seeds: tuple = DEFAULT_SEEDS

    def __post_init__(self):
        for name in ("betas", "top_ps", "temperatures", "modes", "seeds"):
            values = tuple(getattr(self, name))
            if not values:
                raise ValueError(f"{name} must be nonempty")
            object.__setattr__(self, name, values)

    def configs(self) -> list[tuple]:
        """(mode, beta, top_p, temperature) combinations, fixed order."""
        return list(itertools.product(self.modes, self.betas, self.top_ps, self.temperatures))


@dataclass(frozen=True)
class TrialRow:
    mode: str
    beta: float
    top_p: float
    temperature: float
    seed: int
    score: float  # NaN marks a failed trial
    tokens_per_s: float | None = None


@dataclass
class ResultsTable:
    """Grid rows in order, and the error of each failed trial as
    "ExceptionType: message", keyed by row index (not part of the CSV)."""

    rows: list[TrialRow] = field(default_factory=list)
    errors: dict[int, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ThroughputReport:
    """Median per-prompt rates of each arm, and the overheads taken from the
    median of the paired per-prompt variant/baseline rate ratios (see
    `throughput_bench`).  Both medians run over all runs x prompts; the
    overhead is not 1 - variant/baseline of the printed rates."""

    baseline_label: str
    variant_label: str
    baseline_input_rate: float
    baseline_output_rate: float
    variant_input_rate: float
    variant_output_rate: float
    input_overhead_pct: float
    output_overhead_pct: float

    def format_table(self) -> str:
        lines = [
            f"{'Method':<12} {'Input Speed':>12} {'Output Speed':>13}",
            f"{self.baseline_label:<12} {self.baseline_input_rate:>12.2f} {self.baseline_output_rate:>13.2f}",
            f"{self.variant_label:<12} {self.variant_input_rate:>12.2f} {self.variant_output_rate:>13.2f}",
            f"{'Overhead':<12} {self.input_overhead_pct:>11.2f}% {self.output_overhead_pct:>12.2f}%",
            "(rates: median per prompt; overhead: 1 - median paired per-prompt rate ratio)",
        ]
        return "\n".join(lines)


def trial_seed(base_seed: int, config_index: int, replicate_index: int) -> int:
    """Stable per-trial stream key, independent of execution order."""
    seq = np.random.SeedSequence([int(base_seed), int(config_index), int(replicate_index)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def greedy_decode(
    model: Model, prompt, budget: int, stop_tokens=frozenset(), prefix: Prefill | None = None
) -> list[int]:
    """Argmax decode with plain one-hot feedback; the reference sequence.

    With `prefix` (see `pipeline.prefill`) the prompt is not run again."""
    from .embedding import lookup

    table = model.embedding_table
    prompt = check_prompt(model, prompt)
    capacity = min(len(prompt) + max(budget - 1, 0), model.config.context)
    state, logits = start_state(model, prompt, capacity, prefix)
    tokens: list[int] = []
    for step in range(budget):
        token = int(np.argmax(logits))
        tokens.append(token)
        if token in stop_tokens or step == budget - 1:
            break
        logits = model.forward_step(state, lookup(table, token))
    return tokens


def greedy_recovery_score(model: Model, cfg: GenConfig, prompts, budget: int, _ref_cache=None) -> float:
    """Fraction of prompts whose sampled sequence matches the greedy decode.

    Each prompt is prefilled once; its greedy decode and its sampled
    generation both start from that prefill.  `_ref_cache` ((prompt,
    budget, stop tokens) -> (reference, prefill)) carries both across
    calls with the same model, so a grid prefills each prompt once.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1: nothing to compare")
    prompts = [tuple(int(t) for t in p) for p in prompts]
    if not prompts:
        raise ValueError("prompt set must be nonempty")
    cfg = replace(cfg, max_tokens=budget)
    matches = 0
    for prompt in prompts:
        key = (prompt, budget, cfg.stop_tokens)
        entry = None if _ref_cache is None else _ref_cache.get(key)
        if entry is None:
            start = prefill(model, prompt)
            entry = (greedy_decode(model, prompt, budget, cfg.stop_tokens, prefix=start), start)
            if _ref_cache is not None:
                _ref_cache[key] = entry
        reference, start = entry
        result = generate(model, prompt, cfg, prefix=start)
        matches += int(result.tokens == reference)
    return matches / len(prompts)


def _score_trial(model: Model, task: TaskSpec, cfg: GenConfig, ref_cache) -> float:
    if task.kind == "external_scorer":
        return float(task.scorer(model, cfg, task.prompts, task.budget))
    return greedy_recovery_score(model, cfg, task.prompts, task.budget, _ref_cache=ref_cache)


_WORKER: dict = {}


def _worker_init(task):
    _WORKER["model"] = task.resolve_model()
    _WORKER["task"] = task
    _WORKER["ref_cache"] = {}


def _worker_trial(args):
    cfg, measure_rate = args
    model, task = _WORKER["model"], _WORKER["task"]
    return _run_one(model, task, cfg, _WORKER["ref_cache"], measure_rate)


def _run_one(model, task, cfg: GenConfig, ref_cache, measure_rate: bool):
    try:
        if measure_rate:
            generated = 0
            seconds = 0.0
            for prompt in task.prompts:
                result = generate(model, prompt, cfg)
                generated += result.generated_tokens
                seconds += result.decode_seconds
            rate = generated / seconds if seconds > 0 else None
        else:
            rate = None
        return _score_trial(model, task, cfg, ref_cache), rate, None
    except Exception as exc:
        return math.nan, None, f"{type(exc).__name__}: {exc}"


def _trial_config(task: TaskSpec, mode: str, beta: float, top_p: float, temperature: float, seed: int) -> GenConfig:
    return GenConfig(
        mix=MixConfig(mode=mode, beta=beta),
        sampler=SamplerConfig(temperature=temperature, top_p=top_p, seed=seed),
        max_tokens=task.budget,
        stop_tokens=task.stop_tokens,
    )


def run_grid(
    spec: GridSpec,
    out_path: str | Path | None = None,
    jobs: int = 1,
    measure_rate: bool = False,
) -> ResultsTable:
    """Score every (mode, beta, top_p, temperature) x seed combination.

    Rows are produced in the fixed configs() x seeds order regardless of
    `jobs`, so reruns of the same spec write byte-identical CSVs (as long
    as rate measurement stays off).  A failing trial records score NaN
    ("error" in the CSV), its error goes to the table's `errors`, and the
    grid continues.
    """
    model = spec.task.resolve_model()
    trials = [
        (ci, ri, config, seed)
        for ci, config in enumerate(spec.configs())
        for ri, seed in enumerate(spec.seeds)
    ]
    cfgs = [
        _trial_config(spec.task, *config, trial_seed(seed, ci, ri))
        for ci, ri, config, seed in trials
    ]

    writer = None
    fh = None
    partial = None
    if out_path is not None:
        out_path = Path(out_path)
        partial = out_path.with_name(out_path.name + ".partial")
        fh = open(partial, "w", encoding="utf-8", newline="")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_HEADER)
        fh.flush()

    table = ResultsTable()

    def emit(trial, outcome):
        (ci, ri, (mode, beta, top_p, temperature), seed) = trial
        score, rate, error = outcome
        if error is not None:
            table.errors[len(table.rows)] = error
        row = TrialRow(mode, beta, top_p, temperature, seed, score, rate)
        table.rows.append(row)
        if writer is not None:
            writer.writerow(_row_to_csv(row))
            fh.flush()

    try:
        if jobs > 1:
            with ProcessPoolExecutor(
                max_workers=jobs, initializer=_worker_init, initargs=(spec.task,)
            ) as pool:
                outcomes = pool.map(_worker_trial, [(cfg, measure_rate) for cfg in cfgs], chunksize=4)
                for trial, outcome in zip(trials, outcomes):
                    emit(trial, outcome)
        else:
            ref_cache: dict = {}
            for trial, cfg in zip(trials, cfgs):
                emit(trial, _run_one(model, spec.task, cfg, ref_cache, measure_rate))
    finally:
        if fh is not None:
            fh.close()
    if partial is not None:
        partial.replace(out_path)
    return table


def _row_to_csv(row: TrialRow) -> list[str]:
    score = "error" if math.isnan(row.score) else repr(row.score)
    rate = "" if row.tokens_per_s is None else repr(row.tokens_per_s)
    return [row.mode, repr(row.beta), repr(row.top_p), repr(row.temperature), str(row.seed), score, rate]


def save_results(table: ResultsTable, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_HEADER)
        for row in table.rows:
            writer.writerow(_row_to_csv(row))


class ResultsFormatError(ValueError):
    """Raised when a results CSV breaks the format; names the line."""


def load_results(path: str | Path) -> ResultsTable:
    table = ResultsTable()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != RESULTS_HEADER:
            raise ResultsFormatError(f"line 1: unexpected results header: {header}")
        for fields in reader:
            try:
                mode, beta, top_p, temperature, seed, score, rate = fields
                if mode not in MODES:
                    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
                table.rows.append(
                    TrialRow(
                        mode=mode,
                        beta=float(beta),
                        top_p=float(top_p),
                        temperature=float(temperature),
                        seed=int(seed),
                        score=math.nan if score == "error" else float(score),
                        tokens_per_s=None if rate == "" else float(rate),
                    )
                )
            except ValueError as exc:
                raise ResultsFormatError(f"line {reader.line_num}: {exc}") from exc
    return table


# ---------------------------------------------------------------------------
# Best-of-N random-search curves
# ---------------------------------------------------------------------------

_PARAM_FIELDS = {"beta": "beta", "top_p": "top_p", "temperature": "temperature"}


def best_of_n_gain(
    table: ResultsTable,
    param: str,
    max_n: int,
    replicates: int = 256,
    seed: int = 0,
    mode: str = "moi",
    defaults: dict | None = None,
) -> list[tuple[int, float]]:
    """Expected improvement of best-of-N over the first draw, per N.

    For the target `param`, the other two hyperparameters stay at their
    default settings and per-value scores are seed-averaged.  Each
    replicate draws N distinct values uniformly; its gain is the best
    score among them minus the score of the first draw.  `replicates=0`
    switches to exact enumeration over every (subset, first draw) pair.
    """
    if param not in _PARAM_FIELDS:
        raise ValueError(f"param must be one of {sorted(_PARAM_FIELDS)}, got {param!r}")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    defaults = dict(UNIVERSAL_DEFAULTS if defaults is None else defaults)
    others = [name for name in _PARAM_FIELDS if name != param]

    cells: dict[float, list[float]] = {}
    for row in table.rows:
        if row.mode != mode or math.isnan(row.score):
            continue
        if any(getattr(row, other) != defaults[other] for other in others):
            continue
        cells.setdefault(getattr(row, param), []).append(row.score)
    if not cells:
        raise ValueError(
            f"no usable rows for param {param!r} with {others[0]}={defaults[others[0]]}, "
            f"{others[1]}={defaults[others[1]]}, mode={mode!r}"
        )
    values = sorted(cells)
    scores = np.array([float(np.mean(cells[v])) for v in values])
    k = len(values)
    if max_n > k:
        raise ValueError(f"max_n={max_n} exceeds the {k} distinct values of {param!r}")

    curve: list[tuple[int, float]] = []
    if replicates == 0:
        for n in range(1, max_n + 1):
            gains = [
                float(np.max(scores[list(combo)]) - np.mean(scores[list(combo)]))
                for combo in itertools.combinations(range(k), n)
            ]
            curve.append((n, float(np.mean(gains))))
        return curve

    if replicates < 0:
        raise ValueError("replicates must be >= 0")
    rng = np.random.Generator(np.random.PCG64(seed))
    for n in range(1, max_n + 1):
        total = 0.0
        for _ in range(replicates):
            draw = rng.permutation(k)[:n]
            picked = scores[draw]
            total += float(picked.max() - picked[0])
        curve.append((n, total / replicates))
    return curve


def save_curve(curve: list[tuple[int, float]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("n", "expected_gain"))
        for n, gain in curve:
            writer.writerow((str(n), repr(gain)))


# ---------------------------------------------------------------------------
# Throughput
# ---------------------------------------------------------------------------


def _timed_run(model: Model, cfgs, prompts, run: int) -> np.ndarray:
    """Tokens and seconds of each config on each prompt, over one run of the
    prompt set.

    The configs take turns prompt by prompt, in an order that rotates with
    the prompt and the run, so a slowdown burst hits every arm about
    equally.  The garbage collector stays off while timing.  Returns an
    array (len(prompts), len(cfgs), 4) of prompt tokens, generated tokens,
    prefill seconds and decode seconds.
    """
    cfgs = [replace(cfg, sampler=replace(cfg.sampler, seed=run)) for cfg in cfgs]
    counts = np.zeros((len(prompts), len(cfgs), 4))
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i, prompt in enumerate(prompts):
            for arm in np.roll(np.arange(len(cfgs)), run + i):
                result = generate(model, prompt, cfgs[arm])
                counts[i, arm] = (result.prompt_tokens, result.generated_tokens,
                                  result.prefill_seconds, result.decode_seconds)
    finally:
        if was_enabled:
            gc.enable()
    if np.any(counts <= 0.0):
        raise ValueError("throughput run processed no tokens")
    return counts


def throughput_bench(
    model: Model,
    baseline_cfg: GenConfig,
    variant_cfg: GenConfig,
    prompts,
    budget: int,
    runs: int = 5,
    baseline_label: str = "standard",
    variant_label: str | None = None,
) -> ThroughputReport:
    """Input/output rates of both configs over `runs` runs of the prompt set.

    Within each run the two configs alternate prompt by prompt, and each
    (run, prompt) pair gives one variant/baseline rate ratio.  The
    overheads come from the median of those runs x prompts ratios, so a
    generate slowed by a burst of host load does not move them.  The
    reported rates are each arm's median over the same runs x prompts.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    prompts = [tuple(int(t) for t in p) for p in prompts]
    cfgs = (replace(baseline_cfg, max_tokens=budget), replace(variant_cfg, max_tokens=budget))
    _timed_run(model, cfgs, prompts, run=0)  # warm caches and the allocator
    counts = np.array([_timed_run(model, cfgs, prompts, run) for run in range(runs)])
    pair_rates = (counts[..., :2] / counts[..., 2:]).reshape(-1, 2, 2)
    (base_in, base_out), (var_in, var_out) = np.median(pair_rates, axis=0)
    ratios = pair_rates[:, 1] / pair_rates[:, 0]
    in_ratio, out_ratio = np.median(ratios, axis=0)
    return ThroughputReport(
        baseline_label=baseline_label,
        variant_label=variant_label or variant_cfg.mix.mode,
        baseline_input_rate=float(base_in),
        baseline_output_rate=float(base_out),
        variant_input_rate=float(var_in),
        variant_output_rate=float(var_out),
        input_overhead_pct=100.0 * (1.0 - float(in_ratio)),
        output_overhead_pct=100.0 * (1.0 - float(out_ratio)),
    )
