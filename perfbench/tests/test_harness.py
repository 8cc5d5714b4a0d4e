"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import layers  # noqa: E402
import tracer as tracer_module  # noqa: E402
from moi.toy_lm import ModelConfig  # noqa: E402
from tracer import Spans, Target, Tracer, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_children():
    spans = Spans()
    root = spans.add("root", 0, 100)
    a = spans.add("a", 10, 30, parent=root)
    spans.add("a.inner", 12, 20, parent=a)
    spans.add("b", 25, 50, parent=root)  # overlaps a: 25..30 is covered once
    spans.add("c", 90, 120, parent=root)  # runs past the root: only 90..100 counts
    assert self_times(spans) == [100 - 40 - 10, 20 - 8, 8, 25, 30]


def stage_fn():
    return sum(range(500))


def request_fn():
    return stage_fn() + stage_fn()


def batch_fn():
    return [request_fn() for _ in range(3)]


def test_self_times_partition_each_request():
    module = sys.modules[__name__]
    tracer = Tracer(
        (
            Target("batch", ((module, "batch_fn"),)),
            Target("request", ((module, "request_fn"),)),
            Target("stage", ((module, "stage_fn"),)),
        ),
        request_names=("request",),
    )
    with tracer:
        batch_fn()
    spans = tracer.spans
    assert spans.names.count("request") == 3 and spans.names.count("stage") == 6
    # the batch lies outside every request, as run_grid does
    assert list(spans.request) == [-1, 0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert [spans.parent[i] for i in range(4)] == [-1, 0, 1, 1]
    self_ns = self_times(spans)
    request_ns = sum(spans.end[i] - spans.start[i] for i in range(len(spans)) if spans.names[i] == "request")
    closure = layers.closure(spans, self_ns, wrapper_ns=10.0)
    assert closure["self_sum_ns"] == request_ns > 0
    assert closure["inner_spans"] == 6
    assert closure["corrected_ns"] == request_ns - 60.0
    metrics, details = layers.layer_metrics(spans, self_ns, ModelConfig(), wrapper_ns=10.0)
    # each request's self time is less the wrapper cost of its two stages
    own_request = sum(self_ns[i] for i in range(len(spans)) if spans.names[i] == "request")
    assert details["self_ms"]["request"] == (own_request - 6 * 10.0) / 1e6
    assert metrics["pipeline.write_trace.time_share"] == 0.0


class _SleepWorkload:
    def unit(self, i):
        from workloads import UnitResult

        time.sleep(0.01)
        return UnitResult(samples=[("unit", 0.01)], generated=[("moi", 5, 0.01)])

    def own_metrics(self, units, unit_seconds):
        return {}


def test_reference_gets_its_share_of_the_loop_and_normalizes_the_times():
    import run

    def reference():
        time.sleep(0.002)
        return 0.002

    out = run.timed_loop(_SleepWorkload(), 0.3, None, reference=reference)
    units = sum(out.unit_seconds.values())
    last = out.unit_seconds[max(out.unit_seconds)]
    # caught up before the last unit, and at most one run past the share
    assert run.REF_SHARE * (units - last) <= sum(out.ref_seconds) <= run.REF_SHARE * units + 0.003
    metrics, unit = run.end_to_end(_SleepWorkload(), out)
    assert metrics["ref_ms.mean"] == pytest.approx(2.0)
    assert metrics["latency_ref.mean"] == pytest.approx(5.0) and unit["latency_ref.mean"] == "ref"
    assert metrics["tok_per_ref.moi"] == pytest.approx(1.0) and unit["tok_per_ref.moi"] == "tok/ref"


def test_wrapper_cost_is_positive():
    assert tracer_module.wrapper_cost_ns(calls=2000, repeats=3) > 0


def _sites(targets):
    return [
        (owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
        for target in targets
        for owner, attr in target.sites
    ]


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    from workloads import WORKLOADS

    w = WORKLOADS["trace_audit"](seed=1, workdir=tmp_path)
    w.budget = 4
    w.setup()
    targets = layers.targets() + w.targets()
    before = _sites(targets)
    tracer = Tracer(targets, w.request_names)
    with tracer:
        assert all(
            (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is not original
            for owner, attr, original in before
        )
        result = w.unit(0)
    assert not result.failures
    after = _sites(targets)
    assert all(a[2] is b[2] for a, b in zip(before, after))
    names = set(tracer.spans.names)
    assert {"trace_audit.round_trip", "pipeline.generate", "kernels.decode_step", "pipeline.replay_verify"} <= names
    metrics, _ = layers.layer_metrics(tracer.spans, self_times(tracer.spans), w.model.config)
    assert metrics["toy_lm.forward_step.calls"] == 16 + 4 - 1
    assert metrics["sampler.support_size.mean"] == 256


def test_decode_step_cost_grows_linearly_with_kv_length():
    cfg = ModelConfig()
    f1, b1 = layers.decode_step_cost(cfg, 1)
    f2, b2 = layers.decode_step_cost(cfg, 2)
    f9, b9 = layers.decode_step_cost(cfg, 9)
    assert f9 - f1 == 8 * (f2 - f1) == 8 * cfg.layers * (4 * cfg.dim + 5 * cfg.heads)
    assert b9 - b1 == 8 * (b2 - b1) == 8 * cfg.layers * 2 * cfg.dim * 8


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "0.3", "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) >= 3}
    for m in listed:
        assert printed.get(m["name"]) == m["unit"]
    assert "failed_ratio" in printed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "decode_long", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
