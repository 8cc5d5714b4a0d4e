"""Which moi calls the traced run wraps, and the per-layer metrics made from
their spans.

Layers are modules under src/moi.  `prompt_blend` is left out (offline, on
no decoding path) and so is `cli` (argparse over the same calls; its
import cost falls into set-up).
"""

from __future__ import annotations

import os
from collections import defaultdict

from moi import embedding, experiments, kernels, mix_core, pipeline, sampler, toy_lm

from tracer import Target

POSITION_BUCKETS = ((0, 63), (64, 127), (128, 191), (192, 255))


def targets() -> tuple:
    """Every traced call, with each module that looks the name up."""
    return (
        Target("pipeline.generate", ((pipeline, "generate"), (experiments, "generate")),
               probe=lambda a, r: (tuple(int(t) for t in a[1]), len(r.tokens))),
        Target("toy_lm.new_state", ((toy_lm.Model, "new_state"),)),
        Target("toy_lm.forward_step", ((toy_lm.Model, "forward_step"),)),
        Target("kernels.decode_step", ((kernels, "decode_step"),), probe=lambda a, r: int(a[1])),
        Target("kernels.mix_rows", ((kernels, "mix_rows"),), probe=lambda a, r: len(a[1])),
        Target("embedding.lookup", ((embedding, "lookup"), (pipeline, "lookup"))),
        Target("sampler.apply_temperature", ((sampler, "apply_temperature"), (pipeline, "apply_temperature"))),
        Target("sampler.top_p_truncate", ((sampler, "top_p_truncate"), (pipeline, "top_p_truncate")),
               probe=lambda a, r: int(r.ids.size)),
        Target("sampler.sample_position", ((sampler, "sample_position"), (pipeline, "sample_position"))),
        Target("mix_core.check_probs", ((mix_core, "check_probs"), (sampler, "check_probs"))),
        Target("mix_core.normalized_entropy", ((mix_core, "normalized_entropy"),)),
        Target("mix_core.posterior_mix_weights", ((mix_core, "posterior_mix_weights"),)),
        Target("pipeline.write_trace", ((pipeline, "write_trace"),),
               probe=lambda a, r: (len(a[0].records), os.path.getsize(a[1]))),
        Target("pipeline.read_trace", ((pipeline, "read_trace"),), probe=lambda a, r: len(r)),
        Target("pipeline.replay_verify", ((pipeline, "replay_verify"),), probe=lambda a, r: len(a[0])),
        Target("experiments.run_grid", ((experiments, "run_grid"),)),
        Target("experiments.greedy_recovery_score", ((experiments, "greedy_recovery_score"),)),
        Target("experiments.greedy_decode", ((experiments, "greedy_decode"),),
               probe=lambda a, r: (tuple(int(t) for t in a[1]), len(r))),
    )


def decode_step_cost(cfg, kv_len: int) -> tuple[float, float]:
    """Computed (not measured) flops and bytes of one `kernels.decode_step`
    call with `kv_len` cached positions, counted from the ModelConfig tensor
    shapes: a multiply-add is 2 flops; bytes are the float64 parameters and
    KV rows read plus the KV rows written.  Layer norms, GELU and softmax
    are counted at a few flops an element."""
    d, v, layers, heads = cfg.dim, cfg.vocab, cfg.layers, cfg.heads
    inner = 4 * d
    per_layer_flops = (
        2 * d * 3 * d + 3 * d  # qkv
        + 2 * kv_len * d + 5 * kv_len * heads  # scores, softmax
        + 2 * kv_len * d  # context
        + 2 * d * d + 2 * d  # projection, residual
        + 2 * d * inner + inner + 8 * inner  # fc, bias, gelu
        + 2 * inner * d + 2 * d  # out, residual
        + 2 * 7 * d  # two layer norms
    )
    flops = layers * per_layer_flops + 7 * d + 2 * v * d + d
    per_layer_params = d * 3 * d + 3 * d + d * d + d + d * inner + inner + inner * d + d + 4 * d
    reads = layers * (per_layer_params + 2 * kv_len * d) + v * d + 3 * d
    writes = layers * 2 * d
    return float(flops), float(8 * (reads + writes))


# name -> unit of every per-layer metric; all read better lower except the
# cache hit ratio
PER_LAYER_UNITS = {
    "toy_lm.forward_step.us": "us",
    "toy_lm.forward_step.calls": "count/req",
    "toy_lm.forward_step.self_us": "us",
    "kernels.decode_step.us.pos_000_063": "us",
    "kernels.decode_step.us.pos_064_127": "us",
    "kernels.decode_step.us.pos_128_191": "us",
    "kernels.decode_step.us.pos_192_255": "us",
    "kernels.decode_step.flops": "flop_computed",
    "kernels.decode_step.bytes": "B_computed",
    "toy_lm.new_state.us": "us",
    "toy_lm.new_state.calls": "count/req",
    "experiments.prefill_share": "ratio",
    "experiments.repeated_prefill_share": "ratio",
    "experiments.ref_cache.hit_ratio": "ratio",
    "experiments.greedy_decode.calls": "count/req",
    "experiments.run_grid.self_ms": "ms",
    "sampler.apply_temperature.us": "us",
    "sampler.top_p_truncate.us": "us",
    "sampler.sample_position.us": "us",
    "sampler.support_size.mean": "count",
    "mix_core.check_probs.calls_per_step": "count/step",
    "kernels.mix_rows.us": "us",
    "kernels.mix_rows.calls": "count/req",
    "kernels.mix_rows.rows_mean": "count",
    "pipeline.generate.self_us_per_step": "us",
    "embedding.lookup.us": "us",
    "embedding.lookup.calls": "count/req",
    "pipeline.write_trace.us_per_step": "us",
    "pipeline.write_trace.time_share": "ratio",
    "pipeline.trace_bytes_per_step": "B",
    "pipeline.read_trace.us_per_step": "us",
    "pipeline.read_trace.time_share": "ratio",
    "pipeline.replay_verify.us_per_step": "us",
    "pipeline.replay_verify.time_share": "ratio",
    "mix_core.posterior_mix_weights.us": "us",
    "mix_core.normalized_entropy.us": "us",
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "ratio",
    "trace.closure_ratio": "ratio",
}
# One rule decides which of these BENCHMARK.json lists: every one except a
# time that some workload never spends.  Such a time reads exactly 0 on every
# run there, and a result line may not carry a time that reads the same on
# every run.  Counts, bytes and ratios may read 0.  So the decode_step times
# above position 63 (grid_short stays below 10), run_grid's self time
# (grid_short only) and the trace I/O and replay times (trace_audit only)
# are printed and reported but not listed; the `.time_share` metrics list
# the write, read and replay sides of trace_audit apart instead.


def _opens_request(spans, i: int) -> bool:
    """Whether span i is the root of a request (its parent, if any, lies
    outside every request, as run_grid does)."""
    r = spans.request[i]
    p = spans.parent[i]
    return r >= 0 and (p < 0 or spans.request[p] != r)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, self_ns, model_config, wrapper_ns: float = 0.0) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of a traced run and their self
    times.

    Returns (metrics, details).  Times are means per call in microseconds
    unless the name says otherwise; `.calls` are per request.  A layer the
    workload never calls reads 0.  Self times are less `wrapper_ns` for
    every child span, the calibrated cost a traced call adds to its caller
    (see `tracer.wrapper_cost_ns`).  `.time_share` is the layer's wall time
    over the wall time of the requests.  `details` holds the self time of
    every span name, which the stage split is made from.
    """
    names = spans.names
    info = spans.info
    n = len(names)
    dur = defaultdict(int)
    own = defaultdict(float)
    calls = defaultdict(int)
    for i in range(n):
        name = names[i]
        dur[name] += spans.end[i] - spans.start[i]
        own[name] += self_ns[i]
        calls[name] += 1
        if spans.parent[i] >= 0:
            own[names[spans.parent[i]]] -= wrapper_ns
    requests = len({spans.request[i] for i in range(n) if spans.request[i] >= 0})
    request_ns = sum(spans.end[i] - spans.start[i] for i in range(n) if _opens_request(spans, i))

    def us(name):
        return _ratio(dur[name], calls[name]) / 1e3

    m = {
        "toy_lm.forward_step.us": us("toy_lm.forward_step"),
        "toy_lm.forward_step.calls": _ratio(calls["toy_lm.forward_step"], requests),
        "toy_lm.forward_step.self_us": _ratio(own["toy_lm.forward_step"], calls["toy_lm.forward_step"]) / 1e3,
        "toy_lm.new_state.us": us("toy_lm.new_state"),
        "toy_lm.new_state.calls": _ratio(calls["toy_lm.new_state"], requests),
        "experiments.greedy_decode.calls": _ratio(calls["experiments.greedy_decode"], requests),
        "experiments.run_grid.self_ms": _ratio(own["experiments.run_grid"], calls["experiments.run_grid"]) / 1e6,
        "sampler.apply_temperature.us": us("sampler.apply_temperature"),
        "sampler.top_p_truncate.us": us("sampler.top_p_truncate"),
        "sampler.sample_position.us": us("sampler.sample_position"),
        "mix_core.check_probs.calls_per_step": _ratio(calls["mix_core.check_probs"], calls["sampler.sample_position"]),
        "kernels.mix_rows.us": us("kernels.mix_rows"),
        "kernels.mix_rows.calls": _ratio(calls["kernels.mix_rows"], requests),
        "embedding.lookup.us": us("embedding.lookup"),
        "embedding.lookup.calls": _ratio(calls["embedding.lookup"], requests),
        "mix_core.posterior_mix_weights.us": us("mix_core.posterior_mix_weights"),
        "mix_core.normalized_entropy.us": us("mix_core.normalized_entropy"),
    }

    # decode_step by KV position, and its computed cost; prefill is a
    # forward at a position inside the prompt of the enclosing generate or
    # greedy_decode call
    bucket_ns = [0] * len(POSITION_BUCKETS)
    bucket_calls = [0] * len(POSITION_BUCKETS)
    flops = bytes_ = 0.0
    forwards = prefill = repeated = 0
    seen_prompts: set = set()
    prompt_of: dict = {}
    generate_steps = scored = 0
    support = rows = 0
    written_steps = written_bytes = read_steps = replay_steps = 0
    for i in range(n):
        name = names[i]
        if name in ("pipeline.generate", "experiments.greedy_decode"):
            prompt = info[i][0]
            prompt_of[i] = (prompt, prompt in seen_prompts)
            seen_prompts.add(prompt)
            if name == "pipeline.generate":
                generate_steps += info[i][1]
                parent = spans.parent[i]
                scored += parent >= 0 and names[parent] == "experiments.greedy_recovery_score"
        elif name == "kernels.decode_step":
            pos = info[i]
            b = min(pos // 64, len(POSITION_BUCKETS) - 1)
            bucket_ns[b] += spans.end[i] - spans.start[i]
            bucket_calls[b] += 1
            f, by = decode_step_cost(model_config, pos + 1)
            flops += f
            bytes_ += by
            forwards += 1
            owner = spans.parent[spans.parent[i]] if spans.parent[i] >= 0 else -1
            if owner in prompt_of and pos < len(prompt_of[owner][0]):
                prefill += 1
                repeated += prompt_of[owner][1]
        elif name == "sampler.top_p_truncate":
            support += info[i]
        elif name == "kernels.mix_rows":
            rows += info[i]
        elif name == "pipeline.write_trace":
            written_steps += info[i][0]
            written_bytes += info[i][1]
        elif name == "pipeline.read_trace":
            read_steps += info[i]
        elif name == "pipeline.replay_verify":
            replay_steps += info[i]
    for (lo, hi), ns, c in zip(POSITION_BUCKETS, bucket_ns, bucket_calls):
        m[f"kernels.decode_step.us.pos_{lo:03d}_{hi:03d}"] = _ratio(ns, c) / 1e3
    m["kernels.decode_step.flops"] = _ratio(flops, forwards)
    m["kernels.decode_step.bytes"] = _ratio(bytes_, forwards)
    m["experiments.prefill_share"] = _ratio(prefill, forwards)
    m["experiments.repeated_prefill_share"] = _ratio(repeated, prefill)
    m["experiments.ref_cache.hit_ratio"] = _ratio(scored - calls["experiments.greedy_decode"], scored)
    m["sampler.support_size.mean"] = _ratio(support, calls["sampler.top_p_truncate"])
    m["kernels.mix_rows.rows_mean"] = _ratio(rows, calls["kernels.mix_rows"])
    m["pipeline.generate.self_us_per_step"] = _ratio(own["pipeline.generate"], generate_steps) / 1e3
    m["pipeline.write_trace.us_per_step"] = _ratio(dur["pipeline.write_trace"], written_steps) / 1e3
    m["pipeline.trace_bytes_per_step"] = _ratio(written_bytes, written_steps)
    m["pipeline.read_trace.us_per_step"] = _ratio(dur["pipeline.read_trace"], read_steps) / 1e3
    m["pipeline.replay_verify.us_per_step"] = _ratio(dur["pipeline.replay_verify"], replay_steps) / 1e3
    for name in ("pipeline.write_trace", "pipeline.read_trace", "pipeline.replay_verify"):
        m[f"{name}.time_share"] = _ratio(dur[name], request_ns)

    details = {
        "requests": requests,
        "spans": n,
        "self_ms": {name: own[name] / 1e6 for name in sorted(own)},
        "calls": {name: calls[name] for name in sorted(calls)},
    }
    return m, details


def closure(spans, self_ns, wrapper_ns: float) -> dict:
    """The stage self times of the traced requests, summed, and the same sum
    less `wrapper_ns` for every span inside a request but its root.  The
    first equals the requests' traced wall time by construction (self times
    partition each request); the second is what the requests would take
    untraced if the calibrated wrapper cost accounted for all the tracing
    overhead."""
    total_self = 0
    inner = 0
    for i in range(len(spans)):
        if spans.request[i] >= 0:
            total_self += self_ns[i]
            inner += not _opens_request(spans, i)
    return {"self_sum_ns": total_self, "inner_spans": inner, "corrected_ns": total_self - wrapper_ns * inner}
