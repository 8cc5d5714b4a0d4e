"""Command-line entry point.

Subcommands wire the library end to end and emit machine-readable
artifacts (JSONL traces, CSV tables, JSON reports).  Exit codes: 0
success, 1 runtime failure, 2 usage error.  MOI_SEED in the environment
overrides --seed wherever a subcommand accepts one; a value other than
ASCII digits with an optional minus is a runtime failure.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import replace

from . import experiments, pipeline, prompt_blend, toy_lm
from .jsonio import INT, NUMBER, STR, dump, has_type, load
from .mix_core import MixConfig
from .sampler import SamplerConfig

_MODE_ALIASES = {"standard": "standard", "direct": "direct_mixture", "moi": "moi"}
# environment variables that set the BLAS thread count; `moi bench` prints them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the exact JSON type of each grid config field, as (list depth, item
# types): int() would truncate a budget of 2.9, and frozenset("ab") would
# make stop tokens of characters that never match a token id
_GRID_FIELDS = {
    "budget": (0, INT), "stop_tokens": (1, INT), "seeds": (1, INT), "prompt_ids": (2, INT),
    "model": (0, STR), "kind": (0, STR), "prompts": (1, STR), "modes": (1, STR),
    "betas": (1, NUMBER), "top_ps": (1, NUMBER), "temperatures": (1, NUMBER),
}
# the keys each level of a grid config may hold (a typo raises ConfigError)
_GRID_KEYS = frozenset({"task", "betas", "top_ps", "temperatures", "modes", "seeds"})
_TASK_KEYS = frozenset({"model", "kind", "prompts", "prompt_ids", "budget", "stop_tokens"})
# the one form of MOI_SEED: int() would also read 1_0, " 7 ", +3 and non-ASCII digits
_SEED_FORM = re.compile(r"-?[0-9]+")


class ConfigError(ValueError):
    """Raised when a grid config is not valid JSON, lacks a field, or has
    a field of the wrong JSON type or value."""


def _seed_from_env(seed: int) -> int:
    """MOI_SEED as an int if it is set, else `seed`; ValueError naming
    MOI_SEED unless it is an optional minus and ASCII digits."""
    env = os.environ.get("MOI_SEED")
    if env is None:
        return seed
    if not _SEED_FORM.fullmatch(env):
        raise ValueError(f"MOI_SEED must be an integer written as digits with an optional '-', got {env!r}")
    return int(env)


def _gen_config(args, mode: str, seed: int) -> pipeline.GenConfig:
    return pipeline.GenConfig(
        mix=MixConfig(mode=mode, beta=args.beta),
        sampler=SamplerConfig(temperature=args.temperature, top_p=args.top_p, seed=seed),
        max_tokens=args.max_tokens,
        stop_tokens=frozenset(args.stop_token or ()),
    )


def _prompt_ids(prompt: str) -> list[int]:
    return list(prompt.encode("utf-8"))


def cmd_generate(args) -> int:
    model = toy_lm.load_weights(args.model)
    seed = _seed_from_env(args.seed)
    cfg = _gen_config(args, _MODE_ALIASES[args.mode], seed)
    result = pipeline.generate(model, _prompt_ids(args.prompt), cfg)
    if args.trace:
        pipeline.write_trace(result, args.trace)
    print(" ".join(str(t) for t in result.tokens))
    return 0


def cmd_init_model(args) -> int:
    cfg = toy_lm.ModelConfig(
        vocab=args.vocab,
        dim=args.dim,
        heads=args.heads,
        layers=args.layers,
        context=args.context,
        init_seed=_seed_from_env(args.seed),
    )
    toy_lm.save_weights(toy_lm.init_random(cfg), args.out)
    print(f"wrote {args.out}")
    return 0


def _check_grid_keys(obj: dict, known: frozenset) -> None:
    """ConfigError naming every key of `obj` that is not in `known`."""
    if set(obj) - known:
        raise ConfigError(f"grid config: unknown field(s) {sorted(set(obj) - known)}; expected {sorted(known)}")


def _check_grid_fields(obj: dict) -> None:
    """ConfigError naming the first field of `obj` whose JSON type is wrong."""
    for key, (depth, types) in _GRID_FIELDS.items():
        if key in obj and not has_type(obj[key], depth, types):
            kind = "list of " * depth + " or ".join(sorted(t.__name__ for t in types))
            raise ConfigError(f"grid config field {key!r} must be {kind}, got {obj[key]!r}")


def _task_from_json(obj: dict) -> experiments.TaskSpec:
    _check_grid_keys(obj, _TASK_KEYS)
    _check_grid_fields(obj)
    if "model" not in obj:
        raise ConfigError("grid config task needs a 'model' field (a weight file path)")
    kind = obj.get("kind", "greedy_recovery")
    if kind == "external_scorer":
        raise ConfigError(
            "task kind 'external_scorer' is only available through the Python API "
            "(pass a scorer callable to TaskSpec)"
        )
    if "prompt_ids" in obj:
        prompts = obj["prompt_ids"]
    else:
        prompts = [_prompt_ids(p) for p in obj.get("prompts", [])]
    return experiments.TaskSpec(
        model=obj["model"],
        prompts=prompts,
        budget=obj.get("budget", 16),
        kind=kind,
        stop_tokens=obj.get("stop_tokens", ()),
    )


def _load_grid_config(path) -> experiments.GridSpec:
    """The GridSpec of a JSON grid config file; a file that is not a valid
    config raises ConfigError."""
    with open(path, "rb") as fh:
        obj = load(fh.read(), ConfigError, f"{path}: not a JSON grid config")
    if type(obj) is not dict or type(obj.get("task")) is not dict:
        raise ConfigError(f"{path}: grid config needs a 'task' object")
    _check_grid_keys(obj, _GRID_KEYS)
    _check_grid_fields(obj)
    try:
        return experiments.GridSpec(
            task=_task_from_json(obj["task"]),
            betas=obj.get("betas", experiments.DEFAULT_BETAS),
            top_ps=obj.get("top_ps", experiments.DEFAULT_TOP_PS),
            temperatures=obj.get("temperatures", experiments.DEFAULT_TEMPERATURES),
            modes=obj.get("modes", ("moi",)),
            seeds=obj.get("seeds", experiments.DEFAULT_SEEDS),
        )
    except ConfigError:
        raise
    except ValueError as exc:  # an empty list, an unknown kind, a prompt with a lone surrogate
        raise ConfigError(f"grid config: {exc}") from exc


def cmd_grid(args) -> int:
    spec = _load_grid_config(args.config)
    table = experiments.run_grid(spec, out_path=args.out, jobs=args.jobs)
    failures = sum(1 for row in table.rows if math.isnan(row.score))
    print(f"wrote {args.out}: {len(table.rows)} rows, {failures} failed trials")
    for index, error in table.errors.items():
        row = table.rows[index]
        print(
            f"CSV line {index + 2} ({row.mode} beta={row.beta!r} top_p={row.top_p!r} "
            f"temperature={row.temperature!r} seed={row.seed}): {error}",
            file=sys.stderr,
        )
    if failures and args.strict:
        return 1
    return 0


def cmd_bestofn(args) -> int:
    table = experiments.load_results(args.results)
    defaults = {
        "beta": args.default_beta,
        "top_p": args.default_top_p,
        "temperature": args.default_temperature,
    }
    curve = experiments.best_of_n_gain(
        table,
        param=args.param,
        max_n=args.max_n,
        mode=_MODE_ALIASES[args.mode],
        defaults=defaults,
    )
    experiments.save_curve(curve, args.out)
    for n, gain in curve:
        print(f"{n},{gain!r}")
    return 0


def cmd_bench(args) -> int:
    model = toy_lm.load_weights(args.model)
    prompts = [_prompt_ids(p) for p in args.prompt]
    base = pipeline.GenConfig(
        mix=MixConfig(mode="standard", beta=args.beta),
        sampler=SamplerConfig(temperature=args.temperature, top_p=args.top_p, seed=0),
        max_tokens=args.budget,
    )
    variant = replace(base, mix=MixConfig(mode=_MODE_ALIASES[args.variant], beta=args.beta))
    report = experiments.throughput_bench(
        model, base, variant, prompts, args.budget, runs=args.runs, variant_label=args.variant
    )
    print(report.format_table())
    threads = ", ".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS)
    print(f"environment: {threads}, cpu_count={os.cpu_count()}")
    if args.out:
        payload = {
            "baseline": {
                "label": report.baseline_label,
                "input_tokens_per_s": report.baseline_input_rate,
                "output_tokens_per_s": report.baseline_output_rate,
            },
            "variant": {
                "label": report.variant_label,
                "input_tokens_per_s": report.variant_input_rate,
                "output_tokens_per_s": report.variant_output_rate,
            },
            "overhead_pct": {
                "input": report.input_overhead_pct,
                "output": report.output_overhead_pct,
            },
        }
        with open(args.out, "wb") as fh:
            fh.write(dump(payload))
    return 0


def cmd_blend(args) -> int:
    if not args.prompts:
        raise ValueError("no prompt matrices given")
    matrices = [prompt_blend.read_prompt_matrix(p) for p in args.prompts]
    blended = prompt_blend.blend_prompts(matrices, target_length=args.length)
    prompt_blend.write_prompt_matrix(blended, args.out)
    print(f"wrote {args.out}: {blended.shape[0]} x {blended.shape[1]}")
    return 0


def cmd_replay(args) -> int:
    trace = pipeline.read_trace(args.trace)
    cfg = pipeline.GenConfig(mix=MixConfig(mode=_MODE_ALIASES[args.mode], beta=args.beta))
    report = pipeline.replay_verify(trace, cfg, vocab_size=args.vocab, tolerance=args.tolerance)
    print(report.summary())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-model", help="create and save a seeded random model")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vocab", type=int, default=256)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--context", type=int, default=256)
    p.set_defaults(func=cmd_init_model)

    p = sub.add_parser("generate", help="decode from a prompt, optionally tracing every step")
    p.add_argument("--model", required=True)
    p.add_argument("--prompt", required=True, help="prompt as a UTF-8 byte string")
    p.add_argument("--mode", choices=sorted(_MODE_ALIASES), default="moi")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--temperature", type=float, default=0.6)
    p.add_argument("--top-p", dest="top_p", type=float, default=0.95)
    p.add_argument("--max-tokens", dest="max_tokens", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, help="write a JSONL trace here")
    p.add_argument("--stop-token", type=int, action="append", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("grid", help="run a hyperparameter grid from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--strict", action="store_true", help="exit nonzero if any trial failed")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("bestofn", help="best-of-N tuning curve from a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--param", choices=("beta", "top_p", "temperature"), required=True)
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--mode", choices=sorted(_MODE_ALIASES), default="moi")
    p.add_argument("--default-beta", dest="default_beta", type=float, default=1.0)
    p.add_argument("--default-top-p", dest="default_top_p", type=float, default=0.95)
    p.add_argument("--default-temperature", dest="default_temperature", type=float, default=0.6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bestofn)

    p = sub.add_parser("bench", help="throughput comparison against the standard baseline")
    p.add_argument("--model", required=True)
    p.add_argument("--prompt", action="append", required=True, help="repeatable")
    p.add_argument("--variant", choices=sorted(_MODE_ALIASES), default="moi")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--temperature", type=float, default=0.6)
    p.add_argument("--top-p", dest="top_p", type=float, default=0.95)
    p.add_argument("--budget", type=int, default=128)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--out", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("blend", help="blend prompt-embedding matrices into one")
    p.add_argument("--prompts", nargs="*", default=[], help="prompt matrix JSON files")
    p.add_argument("--length", type=int, default=None, help="target length (default: longest prompt)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_blend)

    p = sub.add_parser("replay", help="verify a trace's mixing math without the model")
    p.add_argument("--trace", required=True)
    p.add_argument("--mode", choices=sorted(_MODE_ALIASES), default="moi")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--vocab", type=int, default=256)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
