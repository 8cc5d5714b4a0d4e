#!/usr/bin/env python3
"""The moi benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload decode_long --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.
`--trace 0` times the workload from outside with tracing off and reports
the end-to-end metrics; `--trace 1` alternates traced and untraced runs of
every unit and reports the per-layer metrics and the tracing overhead.
Both print every metric they compute with its unit, then the environment,
then one JSON line with the metrics BENCHMARK.json lists.  Outputs are
checked (see workloads.py); the exit code is 1 when a check fails.
A full report and, for traced runs, the spans go to .bench_out/.
"""

import time

T0 = time.perf_counter()

import os

# Pinned before numpy is first imported: with more BLAS threads than the two
# cores the decode loop was seen to thrash.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"
SETUP_PROBES = 5
# the reference kernel's share of the untraced loop (see reference.py)
REF_SHARE = 0.1


def import_program():
    """Import moi from the checkout's src/, never from anywhere else."""
    if not (SRC / "moi" / "__init__.py").is_file():
        raise SystemExit(f"error: the moi sources are missing ({SRC / 'moi'} not found)")
    sys.path.insert(0, str(SRC))
    import moi

    if Path(moi.__file__).resolve().parent != (SRC / "moi").resolve():
        raise SystemExit(f"error: imported moi from {moi.__file__}, not from {SRC}")
    return moi


def setup_probe(workload: str, seed: int) -> None:
    """Set-up as a fresh process pays it: import, model build and one
    warm-up generate, timed from the top of this script."""
    import_program()
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        w = WORKLOADS[workload](seed, workdir)
        w.setup()
        elapsed = time.perf_counter() - T0
        w.close()
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(workload: str, seed: int) -> float:
    """One set-up time, from a fresh process that is waited for."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment(moi, args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "moi").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "backend": moi.backend_name(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


class Run:
    """Units of one timed loop, with their failures and checks."""

    def __init__(self):
        self.units = {}  # i -> UnitResult, untraced
        self.traced = {}  # i -> UnitResult, traced
        self.unit_seconds = {}  # i -> wall time of the untraced unit
        self.operations = 0
        self.checks = 0
        self.failures = []
        self.raised = 0
        self.setup_samples = []
        self.ref_seconds = []  # reference kernel runs, interleaved with the units

    def add_checks(self, result) -> None:
        self.operations += result.operations
        self.checks += result.checks
        self.failures.extend(result.failures)


def timed_loop(w, seconds: float, tracer, probe=None, reference=None) -> Run:
    """Closed loop of units until they and the reference runs have taken
    `seconds`.  With a tracer, every unit runs twice, traced and untraced,
    alternating which runs first, so the overhead is measured on identical
    work.

    With `reference`, it runs before a unit whenever its total time is below
    REF_SHARE of the units' time, and at least once.  With `probe`, the loop
    pauses SETUP_PROBES times at even intervals to take a set-up sample, so
    the samples see the same spells of machine load as the units do; the
    pauses are not timed."""
    run = Run()
    elapsed = 0.0
    unit_total = 0.0
    probes = SETUP_PROBES if probe else 0
    i = 0
    while i == 0 or elapsed < seconds:
        if len(run.setup_samples) < probes and elapsed >= len(run.setup_samples) * seconds / probes:
            run.setup_samples.append(probe())
        started = time.perf_counter()
        while reference is not None and (not run.ref_seconds or sum(run.ref_seconds) < REF_SHARE * unit_total):
            run.ref_seconds.append(reference())
        units_started = time.perf_counter()
        sides = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        for traced in sides:
            t0 = time.perf_counter()
            try:
                with tracer if traced else contextlib.nullcontext():
                    result = w.unit(i)
            except Exception:  # a failed unit is counted and the loop goes on
                if not run.raised:
                    traceback.print_exc()
                run.raised += 1
                run.operations += 1
                run.failures.append(f"unit {i} raised")
                continue
            if traced:
                run.traced[i] = result
            else:
                run.units[i] = result
                run.unit_seconds[i] = time.perf_counter() - t0
            run.add_checks(result)
        unit_total += time.perf_counter() - units_started
        elapsed += time.perf_counter() - started
        i += 1
    while len(run.setup_samples) < probes:
        run.setup_samples.append(probe())
    return run


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def end_to_end(w, run: Run) -> tuple[dict, dict]:
    """(metrics, units) from the untraced units."""
    units = list(run.units.values())
    latencies = [dt * 1e3 for u in units for _, dt in u.samples]
    m = {
        "latency_ms.mean": statistics.fmean(latencies),
        "latency_ms.p50": quantile(latencies, 0.5),
        "latency_ms.p90": quantile(latencies, 0.9),
        "latency_ms.samples": float(len(latencies)),
    }
    unit = {"latency_ms.mean": "ms", "latency_ms.p50": "ms", "latency_ms.p90": "ms", "latency_ms.samples": "count"}
    totals: dict = {}
    for u in units:
        for mode, tokens, dt in u.generated:
            n, t = totals.get(mode, (0, 0.0))
            totals[mode] = (n + tokens, t + dt)
    for mode, (tokens, seconds) in totals.items():
        m[f"tok_s.{mode}"] = tokens / seconds
        unit[f"tok_s.{mode}"] = "tok/s"
    if run.ref_seconds:
        # the same figures in multiples of the reference kernel's mean time
        # in this run, which a spell of host load moves as much as the units
        ref_ms = statistics.fmean(run.ref_seconds) * 1e3
        m["ref_ms.mean"], unit["ref_ms.mean"] = ref_ms, "ms"
        m["ref_ms.samples"], unit["ref_ms.samples"] = float(len(run.ref_seconds)), "count"
        for stat in ("mean", "p50", "p90"):
            m[f"latency_ref.{stat}"], unit[f"latency_ref.{stat}"] = m[f"latency_ms.{stat}"] / ref_ms, "ref"
        for mode in totals:
            m[f"tok_per_ref.{mode}"], unit[f"tok_per_ref.{mode}"] = m[f"tok_s.{mode}"] * ref_ms / 1e3, "tok/ref"
    for name, (value, u) in w.own_metrics(units, list(run.unit_seconds.values())).items():
        m[name] = value
        unit[name] = u
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unit["peak_rss_mb"] = "MB"
    return m, unit


def tracing(run: Run, tracer, model_config) -> tuple[dict, dict, dict]:
    """(metrics, units, details) of the traced units.

    `trace.closure_ratio` is the stage self times, less the calibrated
    wrapper cost of every span, over the untraced wall time of the same
    units.  It is measured, not checked: the uncorrected sum equals the
    traced wall time by construction, and what is left of the overhead
    after the correction swings with the load on the machine."""
    import layers
    from tracer import self_times, wrapper_cost_ns

    wrapper_ns = wrapper_cost_ns()
    self_ns = self_times(tracer.spans)
    m, details = layers.layer_metrics(tracer.spans, self_ns, model_config, wrapper_ns)
    unit = dict(layers.PER_LAYER_UNITS)
    paired = [i for i in run.traced if i in run.units]
    per_request = []
    untraced_total = 0.0
    for i in paired:
        t = sum(dt for _, dt in run.traced[i].samples)
        u = sum(dt for _, dt in run.units[i].samples)
        per_request.append((t - u) / len(run.units[i].samples))
        untraced_total += u
    untraced_latency = statistics.median(dt for i in paired for _, dt in run.units[i].samples)
    m["trace.overhead_ms"] = statistics.median(per_request) * 1e3
    m["trace.overhead_share"] = statistics.median(per_request) / untraced_latency
    closure = layers.closure(tracer.spans, self_ns, wrapper_ns)
    closure.update(wrapper_ns=wrapper_ns, untraced_ns=untraced_total * 1e9)
    m["trace.closure_ratio"] = closure["corrected_ns"] / closure["untraced_ns"]
    details["closure"] = closure
    return m, unit, details


def check_outputs(w, run: Run) -> None:
    """Checks made once after the timed loop; each failure is counted."""
    from workloads import CANONICAL_SEED, WORKLOADS, UnitResult, stream_digest

    out = UnitResult()
    for i, traced in run.traced.items():
        if i in run.units:
            out.check(traced.streams == run.units[i].streams, f"unit {i}: tracing changed the emitted tokens")
    if 0 in run.units:
        run.add_checks(w.final_checks(run.units[0]))
    canon = WORKLOADS[w.name](CANONICAL_SEED, w.workdir, model=w.model)
    try:
        digest = stream_digest(canon.unit(0).streams)
    finally:
        canon.close()
    expected = json.loads(EXPECTED.read_text()).get(w.name) if EXPECTED.is_file() else None
    out.check(digest == expected, f"token-stream sha256 {digest} != recorded {expected}")
    run.add_checks(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("decode_long", "grid_short", "trace_audit"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    moi = import_program()

    import layers
    from tracer import Tracer
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        w = WORKLOADS[args.workload](args.seed, workdir)
        try:
            w.setup()
            tracer = Tracer(layers.targets() + w.targets(), w.request_names) if args.trace else None
            probe = None if args.trace else (lambda: measure_setup(args.workload, args.seed))
            reference = None
            if not args.trace:
                from reference import time_reference

                reference = time_reference
                reference()  # warm-up, not timed
            run = timed_loop(w, args.seconds, tracer, probe, reference)
            metrics, units = end_to_end(w, run)
            if run.setup_samples:
                metrics["setup_s"] = statistics.median(run.setup_samples)
                units["setup_s"] = "s"
            details = {}
            if tracer is not None:
                traced, traced_units, details = tracing(run, tracer, w.model.config)
                metrics.update(traced)
                units.update(traced_units)
            check_outputs(w, run)
        finally:
            w.close()
    if tracer is not None:
        tracer.spans.write_csv(OUT_DIR / f"spans-{args.workload}.csv")

    attempted = run.operations + run.checks
    failed = len(run.failures)
    metrics["failed_ratio"] = failed / attempted
    units["failed_ratio"] = "ratio"
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    result = {}
    for spec in listed:
        name = spec["name"]
        if name not in metrics or units[name] != spec["unit"]:
            raise SystemExit(f"error: metric {name} ({spec['unit']}) not measured as listed in BENCHMARK.json")
        result[name] = {"value": metrics[name], "unit": units[name]}

    listed_names = {spec["name"] for spec in listed}
    for name in sorted(metrics):
        note = "" if name in listed_names else "   (not in BENCHMARK.json)"
        print(f"{name:40s} {metrics[name]:>16.6g} {units[name]}{note}")
    closure = details.get("closure")
    if closure:
        total = sum(details["self_ms"].values())
        print(f"self time by stage, per request, less {closure['wrapper_ns']:.0f} ns a child span:")
        for name, ms in sorted(details["self_ms"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:38s} {ms / details['requests']:10.4f} ms {ms / total:7.1%}")
        print(
            f"stage self times sum to {closure['self_sum_ns'] / 1e9:.4f} s, the traced wall time of the "
            f"requests; less {closure['inner_spans']} spans x {closure['wrapper_ns']:.0f} ns they are "
            f"{metrics['trace.closure_ratio']:.4f} of the untraced wall time {closure['untraced_ns'] / 1e9:.4f} s"
        )
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    env = environment(moi, args)
    print("env " + json.dumps(env))
    report = {
        "env": env,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
        "setup_samples_s": run.setup_samples,
        "attempted": attempted,
        "failures": run.failures,
        "details": details,
    }
    (OUT_DIR / f"report-{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
