"""Hyperparameter grid runs, best-of-N tuning curves, throughput bench.

The built-in scoring task, greedy_recovery, is the fraction of sampled
generations that exactly reproduce the model's greedy decode of the same
prompt.  It needs no external data or judge, is a pure function of the
seeds, and moves monotonically with the sampling knobs (sharper sampling
and closer-to-one-hot feedback both raise it), which is what the grid and
best-of-N machinery need to be exercised end to end.

Grid rows land in a CSV with the fixed header
``mode,beta,top_p,temperature,seed,score``.  Rows are streamed to a
``.partial`` file and atomically renamed at the end, so a crashed grid
leaves its completed rows behind.  Rerunning a spec writes a
byte-identical CSV; `throughput_bench` measures the rate of a grid cell.
"""

from __future__ import annotations

import csv
import gc
import io
import itertools
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .mix_core import MODES, MixConfig, token_id
from .pipeline import GenConfig, Prefill, _greedy_rows, check_prompt, generate, prefetch, start_state
from .sampler import SamplerConfig, check_seed
from .toy_lm import Model, load_weights

RESULTS_HEADER = ("mode", "beta", "top_p", "temperature", "seed", "score")

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
        prompts = tuple(tuple(map(token_id, p)) for p in self.prompts)
        if not prompts:
            raise ValueError("prompt set must be nonempty")
        object.__setattr__(self, "prompts", prompts)
        object.__setattr__(self, "stop_tokens", frozenset(map(token_id, self.stop_tokens)))


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
        object.__setattr__(self, "seeds", tuple(check_seed(s, "seeds") for s in self.seeds))

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

    It starts like `generate`, through `pipeline.start_state`; with
    `prefix` (see `pipeline.prefill`) the prompt is not run again."""
    from .embedding import lookup

    table = model.embedding_table
    stop_tokens = frozenset(map(token_id, stop_tokens))
    state, logits = start_state(model, check_prompt(model, prompt), budget, prefix)
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
    generation both start from that prefill.  `_ref_cache` ((prompt, budget,
    stop tokens) -> (reference, prefill)) carries both across calls with the
    same model, so a grid prefills each prompt once.  Missed prompts are
    prefilled and greedy-decoded as lockstep rows (`pipeline._greedy_rows`),
    the sampled generations run as a batch (`pipeline.prefetch`), and each
    `generate` takes its result.  A prompt listed more than once is
    generated once and counted at each listing.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1: nothing to compare")
    prompts = [tuple(map(token_id, p)) for p in prompts]
    if not prompts:
        raise ValueError("prompt set must be nonempty")
    cfg = replace(cfg, max_tokens=budget)
    cache = {} if _ref_cache is None else _ref_cache
    keys = {prompt: (prompt, budget, cfg.stop_tokens) for prompt in prompts}
    refs = _greedy_rows(model, [p for p, key in keys.items() if key not in cache], budget, cfg.stop_tokens)
    cache.update((keys[prompt], entry) for prompt, entry in refs.items())
    entries = {prompt: cache[key] for prompt, key in keys.items()}
    # a prefix from another model is left to generate, which rejects it
    prefetch([start for _, start in entries.values() if start.model is model], cfg)
    # one generation per distinct prompt, counted once per occurrence
    hits = {
        prompt: generate(model, prompt, cfg, prefix=start).tokens == reference
        for prompt, (reference, start) in entries.items()
    }
    matches = sum(hits[prompt] for prompt in prompts)
    return matches / len(prompts)


# the per-process grid state: the model, the task and the ref cache, set
# by `_worker_init` in each pool worker, or in-process when jobs == 1
_WORKER: dict = {}


def _worker_init(task: TaskSpec) -> None:
    # a weight file is loaded by the first trial: an initializer that raises
    # breaks the pool, and the caller would get BrokenProcessPool, not the error
    _WORKER.update(task=task, model=task.model if isinstance(task.model, Model) else None, ref_cache={})


def _run_trial(cfg: GenConfig) -> tuple[float, str | None]:
    """(score, None) for one grid trial, or (NaN, "ExceptionType: message").
    A scorer's ±inf is a failed trial, as the CSV holds finite scores; its
    NaN is a silent failure.  A weight file that fails to load raises."""
    task = _WORKER["task"]
    if _WORKER["model"] is None:
        _WORKER["model"] = load_weights(task.model)
    model = _WORKER["model"]
    try:
        if task.kind == "external_scorer":
            score = float(task.scorer(model, cfg, task.prompts, task.budget))
            if math.isinf(score):
                raise ValueError(f"scorer returned {score}, not a finite score")
            return score, None
        return greedy_recovery_score(model, cfg, task.prompts, task.budget, _ref_cache=_WORKER["ref_cache"]), None
    except Exception as exc:
        return math.nan, f"{type(exc).__name__}: {exc}"


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
) -> ResultsTable:
    """Score every (mode, beta, top_p, temperature) x seed combination.

    Rows are produced in the fixed configs() x seeds order regardless of
    `jobs`, so reruns of the same spec write byte-identical CSVs.  With
    `jobs` > 1 each worker process loads the model; this process does not.
    `jobs` below 1 raises ValueError before the CSV opens.
    A failing trial records score NaN ("error" in the CSV), its error goes
    to the table's `errors`, and the grid continues.
    """
    if isinstance(jobs, bool):
        raise TypeError("jobs must be an integer, not a bool")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
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
        score, error = outcome
        if error is not None:
            table.errors[len(table.rows)] = error
        row = TrialRow(mode, beta, top_p, temperature, seed, score)
        table.rows.append(row)
        if writer is not None:
            writer.writerow(_row_to_csv(row))
            fh.flush()

    try:
        if jobs > 1:
            # imported here: it loads multiprocessing, which a serial grid never uses
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                max_workers=jobs, initializer=_worker_init, initargs=(spec.task,)
            ) as pool:
                for trial, outcome in zip(trials, pool.map(_run_trial, cfgs, chunksize=4)):
                    emit(trial, outcome)
        else:
            _worker_init(spec.task)
            for trial, cfg in zip(trials, cfgs):
                emit(trial, _run_trial(cfg))
    finally:
        _WORKER.clear()
        if fh is not None:
            fh.close()
    if partial is not None:
        partial.replace(out_path)
    return table


def _row_to_csv(row: TrialRow) -> list[str]:
    score = "error" if math.isnan(row.score) else repr(row.score)
    return [row.mode, repr(row.beta), repr(row.top_p), repr(row.temperature), str(row.seed), score]


class ResultsFormatError(ValueError):
    """Raised when a results CSV breaks the format; names the line."""


# the forms repr(float) and str(int) write; float() and int() also take
# "1_0", " 3 ", "+3" and non-ASCII digits, which would load silently
_FLOAT_FORM = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")
_INT_FORM = re.compile(r"-?[0-9]+")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    if not _FLOAT_FORM.fullmatch(text):
        raise ValueError(f"{text!r} is not a number as the writer writes it")
    return value


def _integer(text: str) -> int:
    value = int(text)
    if not _INT_FORM.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer as the writer writes it")
    return value


def load_results(path: str | Path) -> ResultsTable:
    """The rows of a results CSV.  A file that breaks the format (bytes
    that are not UTF-8, a wrong field count, a number that does not parse,
    is not finite or is not in the ASCII decimal form repr and str write,
    a mode outside MODES) raises ResultsFormatError naming the line;
    "error" is the one failed-trial score."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ResultsFormatError(f"line {line}: not UTF-8: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    table = ResultsTable()
    try:
        header = next(reader, None)
        if header is None or tuple(header) != RESULTS_HEADER:
            raise ValueError(f"unexpected results header: {header}")
        for fields in reader:
            mode, beta, top_p, temperature, seed, score = fields
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
            table.rows.append(
                TrialRow(
                    mode=mode,
                    beta=_finite(beta),
                    top_p=_finite(top_p),
                    temperature=_finite(temperature),
                    seed=_integer(seed),
                    score=math.nan if score == "error" else _finite(score),
                )
            )
    except (ValueError, csv.Error) as exc:
        raise ResultsFormatError(f"line {max(reader.line_num, 1)}: {exc}") from exc
    return table


# ---------------------------------------------------------------------------
# Best-of-N random-search curves
# ---------------------------------------------------------------------------

_PARAM_FIELDS = {"beta": "beta", "top_p": "top_p", "temperature": "temperature"}


def best_of_n_gain(
    table: ResultsTable,
    param: str,
    max_n: int,
    mode: str = "moi",
    defaults: dict | None = None,
) -> list[tuple[int, float]]:
    """Expected improvement of best-of-N over the first draw, per N.

    For the target `param`, the other two hyperparameters stay at their
    default settings and per-value scores are seed-averaged.  N distinct
    values are drawn uniformly; the gain is the expected best score among
    them minus the expected score of the first draw, computed exactly:
    with the k cell scores sorted ascending as s, s[j] is the best of
    C(j, N-1) of the C(k, N) subsets.
    """
    if param not in _PARAM_FIELDS:
        raise ValueError(f"param must be one of {sorted(_PARAM_FIELDS)}, got {param!r}")
    if isinstance(max_n, bool):
        raise TypeError("max_n must be an integer, not a bool")
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
    scores = np.sort([float(np.mean(v)) for v in cells.values()])
    k = len(cells)
    if max_n > k:
        raise ValueError(f"max_n={max_n} exceeds the {k} distinct values of {param!r}")

    def best_weights(n: int) -> np.ndarray:
        return np.array([math.comb(j, n - 1) / math.comb(k, n) for j in range(k)])

    first = best_weights(1)
    return [(n, float((best_weights(n) - first) @ scores)) for n in range(1, max_n + 1)]


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
    if isinstance(runs, bool):
        raise TypeError("runs must be an integer, not a bool")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    prompts = [tuple(map(token_id, p)) for p in prompts]
    cfgs = (replace(baseline_cfg, max_tokens=budget), replace(variant_cfg, max_tokens=budget))
    _timed_run(model, cfgs, prompts, run=0)  # warm caches and the allocator
    counts = np.array([_timed_run(model, cfgs, prompts, run) for run in range(runs)])
    pair_rates = (counts[..., :2] / counts[..., 2:]).reshape(-1, 2, 2)
    (base_in, base_out), (var_in, var_out) = np.median(pair_rates, axis=0)
    ratios = pair_rates[:, 1] / pair_rates[:, 0]
    in_ratio, out_ratio = np.median(ratios, axis=0)
    return ThroughputReport(
        baseline_label=baseline_cfg.mix.mode,
        variant_label=variant_label or variant_cfg.mix.mode,
        baseline_input_rate=float(base_in),
        baseline_output_rate=float(base_out),
        variant_input_rate=float(var_in),
        variant_output_rate=float(var_out),
        input_overhead_pct=100.0 * (1.0 - float(in_ratio)),
        output_overhead_pct=100.0 * (1.0 - float(out_ratio)),
    )
