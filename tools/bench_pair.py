#!/usr/bin/env python3
"""Alternating parent/change pairs of the repo benchmark, written as BENCH_<n>.json.

    python3 tools/bench_pair.py --parent PARENT_TREE --change CHANGE_TREE \\
        --seeds 1001-1010 --out BENCH_10.json \\
        --claim decode_long:tok_per_ref.moi:0.10 --traced decode_long:1001

PARENT_TREE and CHANGE_TREE are two checkouts (each with src/ and perfbench/,
made with `git archive` or `git clone`).  For every workload and seed the
script runs

    python3 perfbench/run.py --workload W --seconds 35 --trace 0 --seed S

in one tree and then in the other, the side that goes first alternating from
one pair to the next.  run.py overwrites .bench_out/report-W-trace0.json on
every run, so the report is read, and copied to --keep if given, right
after each run.  Metrics are read from the report's {"value", "unit"}
objects; the names, units, bounds and better-directions come from the
parent tree's BENCHMARK.json.  Each pair also carries the report metrics
in UNBOUNDED, which BENCHMARK.json does not bound; they get quartiles and
no bound.  The output file is rewritten after every pair, so an
interrupted run keeps the pairs it finished.

`--change PARENT_TREE` (the same tree on both sides) makes an A/A set, which
shows how far two runs of one program read apart, for a change's pairs to be
read beside; the file's "change" line then says so.

`--traced W:S` adds one `--trace 1` run per side of workload W at seed S and
records the per-layer metrics BENCHMARK.json lists.  `--claim W:M:R` states
a gain: metric M on workload W must beat the parent's median by at least
the fraction R, in at least 9 of 10 pairs, by more than the parent's
interquartile spread; the summary says whether it did.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")

# report metrics with no bound in BENCHMARK.json, kept for the record as
# name -> (unit, better): the other two modes' rates, decode_long's median
# paired moi/standard rate ratio (the paper's overhead row), and the raw wall
# rates of trace_audit's write and replay sides and of grid_short's trials,
# which are not divided by the reference kernel's time as the tok_per_ref
# rates are, so they move with the host's speed.  Never gated.
UNBOUNDED = {
    "tok_per_ref.standard": ("tok/ref", "higher"),
    "tok_per_ref.direct_mixture": ("tok/ref", "higher"),
    "moi_vs_standard": ("ratio", "higher"),
    "trace_write_steps_s": ("steps/s", "higher"),
    "replay_steps_s": ("steps/s", "higher"),
    "trials_s": ("1/s", "higher"),
}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int, keep: Path | None, tag: str) -> dict:
    """One benchmark run in `tree`: the last stdout line (correct, attempted,
    failed) and the report run.py wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace), "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{tag}: no output (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    report_path = tree / ".bench_out" / f"report-{workload}-trace{trace}.json"
    report = json.loads(report_path.read_text())
    if keep is not None:
        keep.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(report_path, keep / f"report-{tag}.json")
    return {"result": result, "report": report}


def values(run: dict, names) -> dict:
    metrics = run["report"]["metrics"]
    return {name: metrics[name]["value"] for name in names if name in metrics}


def quartiles(xs: list[float]) -> dict:
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Per end-to-end metric: quartiles per side, the relative move of the
    medians, whether it is worse than the bound, and the pairs the change
    wins.  The UNBOUNDED metrics get the same fields but no bound, and
    "unbounded" in place of the worse flag."""
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics += [(name, unit, better, None) for name, (unit, better) in UNBOUNDED.items()]
    out = {}
    for name, unit, better, bound in metrics:
        sign = 1.0 if better == "higher" else -1.0
        got = [(p["parent"][name], p["change"][name]) for p in pairs if name in p["parent"] and name in p["change"]]
        if not got:
            continue
        parent = quartiles([a for a, _ in got])
        change = quartiles([b for _, b in got])
        rel = (change["median"] - parent["median"]) / parent["median"]
        out[name] = {
            "unit": unit,
            "better": better,
            "bound": bound,
            "parent": parent,
            "change": change,
            "median_change_rel": rel,
            **({"unbounded": True} if bound is None else {"worse_beyond_bound": -sign * rel > bound}),
            "change_better_pairs": sum(sign * (b - a) > 0 for a, b in got),
        }
    return out


def claim_check(summary: dict, metric: str, min_rel: float, n_pairs: int) -> dict:
    s = summary[metric]
    sign = 1.0 if s["better"] == "higher" else -1.0
    gap = sign * (s["change"]["median"] - s["parent"]["median"])
    iqr = s["parent"]["q3"] - s["parent"]["q1"]
    wins_needed = -(-9 * n_pairs // 10)
    return {
        "metric": metric,
        "min_rel": min_rel,
        "median_change_rel": s["median_change_rel"],
        "change_better_pairs": s["change_better_pairs"],
        "pairs": n_pairs,
        "gap": gap,
        "parent_iqr": iqr,
        "met": sign * s["median_change_rel"] >= min_rel and s["change_better_pairs"] >= wins_needed and gap > iqr,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent commit's tree")
    ap.add_argument("--change", type=Path, required=True, help="the change's tree; the parent's for an A/A set")
    ap.add_argument("--workloads", default="decode_long,grid_short,trace_audit")
    ap.add_argument("--seeds", required=True, help="e.g. 1001-1010 or 5,7,9")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--keep", type=Path, help="directory to copy every run's report into")
    ap.add_argument("--what", default="", help="what the pairs are evidence for")
    ap.add_argument("--parent-commit", default=None)
    ap.add_argument("--claim", action="append", default=[], help="W:METRIC:MIN_REL, a claimed gain")
    ap.add_argument("--traced", action="append", default=[], help="W:SEED, one traced run per side")
    args = ap.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    seeds = parse_seeds(args.seeds)
    claims = {}
    for c in args.claim:
        w, metric, rel = c.split(":")
        claims.setdefault(w, []).append((metric, float(rel)))
    bench = {
        "what": args.what,
        "claim": [f"{w}: {m} better by >= {r:.0%}" for w, ms in claims.items() for m, r in ms] or "none",
        "command": f"python3 perfbench/run.py --workload W --seconds {args.seconds:g} --trace 0 --seed S",
        "parent_commit": args.parent_commit,
        "change": "the parent's tree again, run as the change side: an A/A set" if trees["change"] == trees["parent"] else
                  "the change's src/ in a tree of its own; perfbench/ and BENCHMARK.json are the parent's, unchanged",
        "pairing": "per seed and workload the two sides run back to back; 'first' names the side that ran first, "
                   "alternating from one pair to the next",
        "summary_fields": "median and quartiles (inclusive method) per side over the pairs; median_change_rel = "
                          "(change - parent) / parent of the medians; worse_beyond_bound compares it, signed by "
                          "'better', with BENCHMARK.json's bound; change_better_pairs counts the pairs where the "
                          "change reads better; metrics marked unbounded have no bound in BENCHMARK.json and "
                          "are recorded, not gated; a claim is met when the median moves by at least min_rel, the "
                          "change wins at least 9 of 10 pairs and the gap of the medians exceeds the parent's "
                          "interquartile spread",
        "seeds": seeds,
        "env": {},
        "workloads": {},
    }

    def save():
        args.out.write_text(json.dumps(bench, indent=1) + "\n")

    for w in args.workloads.split(","):
        pairs = []
        entry = bench["workloads"][w] = {"all_correct": True, "failed": {s: 0 for s in SIDES}, "pairs": pairs}
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = run_once(trees[side], w, seed, args.seconds, 0, args.keep, f"{side}-{w}-{seed}")
                res = run["result"]
                pair[side] = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                              **values(run, e2e + list(UNBOUNDED))}
                entry["all_correct"] &= bool(res["correct"])
                entry["failed"][side] += res["failed"]
                bench["env"][side] = run["report"]["env"]
                print(f"{w} seed {seed} {side}: " + json.dumps(pair[side]), flush=True)
            pairs.append(pair)
            entry["summary"] = summarize(pairs, spec)
            entry["claims"] = [claim_check(entry["summary"], m, r, len(pairs)) for m, r in claims.get(w, [])]
            save()
    for t in args.traced:
        w, seed = t.split(":")
        traced = bench.setdefault("traced", {})[w] = {"seed": int(seed)}
        for side in SIDES:
            run = run_once(trees[side], w, int(seed), args.seconds, 1, args.keep, f"{side}-{w}-{seed}-traced")
            traced[side] = {name: {"value": run["report"]["metrics"][name]["value"],
                                   "unit": run["report"]["metrics"][name]["unit"]}
                            for name in per_layer if name in run["report"]["metrics"]}
            traced[side]["correct"] = run["result"]["correct"]
            print(f"{w} traced {side} done", flush=True)
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
