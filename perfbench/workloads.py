"""The benchmark's workloads: inputs made from a seed, one unit of work each,
and the checks on what the program emitted.

Every workload is a closed loop in one process: the next unit starts when
the previous one has returned, with `jobs=1` and BLAS pinned to one thread
(run.py sets that before numpy is imported).  The program only ever sees
the generated prompts and sampler seeds.

Calls into moi go through module attributes (``pipeline.generate``, not a
name bound at import), so the tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from moi import experiments, pipeline, toy_lm
from moi.mix_core import MixConfig
from moi.sampler import SamplerConfig

from tracer import Target, Tracer, wrapper_cost_ns

MODES = ("standard", "direct_mixture", "moi")
# The digests in expected.json are of unit 0 on this seed, whatever --seed a
# run is given, so every run checks its program against the same record.
CANONICAL_SEED = 0


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *key])))


def _derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([int(seed), *key]).generate_state(1, dtype=np.uint64)[0])


@dataclass
class UnitResult:
    """What one unit of work did.  `samples` are (label, seconds) latency
    samples; `generated` holds (mode, tokens, seconds) per generate call."""

    samples: list = field(default_factory=list)
    generated: list = field(default_factory=list)
    streams: list = field(default_factory=list)
    operations: int = 0
    checks: int = 0
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)


def stream_digest(streams) -> str:
    h = hashlib.sha256()
    for stream in streams:
        h.update((",".join(str(int(t)) for t in stream) + "\n").encode())
    return h.hexdigest()


def _gen_cfg(mode: str, beta: float, temperature: float, top_p: float, seed: int, max_tokens: int):
    return pipeline.GenConfig(
        mix=MixConfig(mode=mode, beta=beta),
        sampler=SamplerConfig(temperature=temperature, top_p=top_p, seed=seed),
        max_tokens=max_tokens,
    )


class Workload:
    name = ""
    init_seed = 0
    request_names: tuple = ()

    def __init__(self, seed: int, workdir: Path, model=None):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.model = model

    def setup(self) -> None:
        """Build the model and run one warm-up generate."""
        if self.model is None:
            self.model = toy_lm.init_random(toy_lm.ModelConfig(init_seed=self.init_seed))
        self.warm_up()

    def warm_up(self) -> None:
        raise NotImplementedError

    def unit(self, i: int) -> UnitResult:
        raise NotImplementedError

    def targets(self) -> tuple:
        """Extra spans the workload itself opens (request roots)."""
        return ()

    def own_metrics(self, units: list, unit_seconds: list) -> dict:
        """End-to-end metrics only this workload has: name -> (value, unit)."""
        return {}

    def final_checks(self, first: UnitResult) -> UnitResult:
        """Checks run once after the timed loop: unit 0 again must emit the
        same tokens."""
        out = UnitResult()
        again = self.unit(0)
        out.check(again.streams == first.streams, f"{self.name}: unit 0 repeated emits other tokens")
        return out

    def close(self) -> None:
        pass


class DecodeLong(Workload):
    """decode_long: 32 prompts of 16 random tokens, 224 generated tokens each,
    T=0.6, top_p=0.95, on the default model (init_seed 0).  A unit is one
    round on one prompt: `standard`, `direct_mixture` and `moi` (beta=1) with
    the same sampler seed, the order of the arms reversed every other round.

    Why: the forward pass carries most of each step and attention grows with
    the KV length up to position 239, while prefill is only 16 of 240
    positions.  The paired arms test the paper's claim that mixing costs
    little over one-hot feedback, and the per-call overhead and prefix reuse
    that move grid_short are predicted to change nothing here.
    """

    name = "decode_long"
    init_seed = 0
    request_names = ("pipeline.generate",)
    n_prompts = 32
    prompt_len = 16
    budget = 224

    def __init__(self, seed, workdir, model=None):
        super().__init__(seed, workdir, model)
        rng = _rng(self.seed, 1)
        self.prompts = [tuple(int(t) for t in rng.integers(0, 256, self.prompt_len)) for _ in range(self.n_prompts)]

    def _cfg(self, mode: str, seed: int):
        return _gen_cfg(mode, 1.0, 0.6, 0.95, seed, self.budget)

    def warm_up(self):
        for mode in MODES:
            pipeline.generate(self.model, self.prompts[0], self._cfg(mode, 0))

    def unit(self, i):
        out = UnitResult()
        prompt = self.prompts[i % self.n_prompts]
        seed = _derived_seed(self.seed, 1, i)
        arms = MODES if i % 2 == 0 else MODES[::-1]
        for mode in arms:
            cfg = self._cfg(mode, seed)
            t0 = time.perf_counter()
            result = pipeline.generate(self.model, prompt, cfg)
            dt = time.perf_counter() - t0
            out.operations += 1
            out.samples.append((mode, dt))
            out.generated.append((mode, len(result.tokens), dt))
            out.streams.append(result.tokens)
            out.check(
                len(result.tokens) == self.budget and all(0 <= t < 256 for t in result.tokens),
                f"{mode} round {i}: {len(result.tokens)} tokens, expected {self.budget} in [0, 256)",
            )
        return out

    def own_metrics(self, units, unit_seconds):
        # per round: both arms ran the same prompt and sampler seed
        ratios = []
        for u in units:
            seconds = {mode: dt for mode, _, dt in u.generated}
            ratios.append(seconds["standard"] / seconds["moi"])
        return {"moi_vs_standard": (statistics.median(ratios), "ratio")}

    def final_checks(self, first):
        out = UnitResult()
        seed = _derived_seed(self.seed, 1, 0)
        for mode, stream in zip(MODES, first.streams):
            cfg = self._cfg(mode, seed)
            result = pipeline.generate(self.model, self.prompts[0], cfg)
            out.check(result.tokens == stream, f"{mode} round 0 repeated emits other tokens")
            report = pipeline.replay_verify(result.records, cfg, self.model.config.vocab, 1e-9)
            out.check(report.passed, f"{mode} round 0 replay: {report.summary()}")
        return out


class GridShort(Workload):
    """grid_short: `experiments.run_grid` over a pool of 24 distinct prompts
    of 2-3 bytes ([a-z0-9], like the acceptance suite's pool), budget 5, mode moi,
    beta in {0.01, 1e6}, T=0.6, top_p=0.95, 10 seeds per grid, model
    init_seed 9, CSV to a file in the work directory.  A unit is one grid;
    a latency sample is one trial (scoring all 24 prompts).

    Why: each generation is about 6 forward passes, over a third of them at
    prompt positions that earlier trials already prefilled, so the fixed
    per-generation cost (new_state, checks, sampling set-up) and re-prefill
    dominate while attention length is almost absent.  Prefix reuse and
    per-call overhead show here.
    """

    name = "grid_short"
    init_seed = 9
    request_names = ("experiments.greedy_recovery_score",)
    # the acceptance suite's pool has 18 prompts of 2 bytes and 6 of 3; the
    # same lengths on every seed keep the work per trial independent of it
    prompt_lengths = (2,) * 18 + (3,) * 6
    budget = 5
    seeds_per_grid = 10
    _ALPHABET = b"abcdefghijklmnopqrstuvwxyz0123456789"

    def __init__(self, seed, workdir, model=None):
        super().__init__(seed, workdir, model)
        rng = _rng(self.seed, 2)
        pool: list[tuple] = []
        for length in self.prompt_lengths:
            while True:
                prompt = tuple(int(self._ALPHABET[j]) for j in rng.integers(0, len(self._ALPHABET), length))
                if prompt not in pool:
                    break
            pool.append(prompt)
        self.pool = tuple(pool)
        self.csv_path = self.workdir / f"{self.name}.csv"
        # boundary timers: one span per trial and per generate call inside
        # run_grid, the only way to see a single trial from outside.  They
        # stay installed in untimed and timed runs alike, so every grid_short
        # figure includes them; own_metrics reports what they cost.
        self._timer = Tracer(
            (
                Target("trial", ((experiments, "greedy_recovery_score"),)),
                Target("generate", ((experiments, "generate"),), probe=self._tokens),
            )
        )
        self._timer.install()

    @staticmethod
    def _tokens(args, result):
        return tuple(result.tokens)

    def close(self):
        self._timer.uninstall()

    def warm_up(self):
        cfg = _gen_cfg("moi", 0.01, 0.6, 0.95, 0, self.budget)
        pipeline.generate(self.model, self.pool[0], cfg)

    def spec(self, i: int):
        seeds = tuple(_derived_seed(self.seed, 2, i, k) % 2**31 for k in range(self.seeds_per_grid))
        return experiments.GridSpec(
            task=experiments.TaskSpec(model=self.model, prompts=self.pool, budget=self.budget),
            betas=(0.01, 1e6),
            top_ps=(0.95,),
            temperatures=(0.6,),
            modes=("moi",),
            seeds=seeds,
        )

    def unit(self, i):
        out = UnitResult()
        spans = self._timer.spans
        table = experiments.run_grid(self.spec(i), out_path=self.csv_path, jobs=1)
        data = self.csv_path.read_bytes()
        for k in range(len(spans)):
            dt = (spans.end[k] - spans.start[k]) * 1e-9
            if spans.names[k] == "trial":
                out.samples.append(("trial", dt))
            else:
                tokens = spans.info[k]
                out.generated.append(("moi", len(tokens), dt))
                out.streams.append(tokens)
        spans.clear()

        rows = list(csv.reader(io.StringIO(data.decode())))[1:]
        out.operations += len(table.rows)
        out.check(len(rows) == 2 * self.seeds_per_grid, f"grid {i}: {len(rows)} CSV rows")
        for k, row in enumerate(rows):
            out.check(row[5] != "error", f"grid {i} row {k}: error cell")
        out.extra["csv"] = data
        return out

    def own_metrics(self, units, unit_seconds):
        trials = sum(len(u.samples) for u in units)
        generates = sum(len(u.generated) for u in units)
        # the boundary timers' calibrated cost per trial: one trial span and
        # its generate spans with their token probe
        generate_ns = wrapper_cost_ns(probe=self._tokens, result=SimpleNamespace(tokens=[0] * self.budget))
        timer_ms = (wrapper_cost_ns() + generates / trials * generate_ns) / 1e6
        trial_ms = statistics.median(dt for u in units for _, dt in u.samples) * 1e3
        return {
            "trials_s": (trials / sum(unit_seconds), "1/s"),
            "timer.overhead_ms": (timer_ms, "ms"),
            "timer.overhead_share": (timer_ms / trial_ms, "ratio"),
        }

    def final_checks(self, first):
        out = super().final_checks(first)
        out.check(
            self.csv_path.read_bytes() == first.extra["csv"],
            "grid 0 repeated writes a CSV that is not byte-identical",
        )
        return out


class TraceAudit(Workload):
    """trace_audit: generate at T=1.0, top_p=1.0 in moi mode (beta=1), so the
    support is all 256 tokens; 16-token random prompts, 96 generated tokens,
    model init_seed 0.  A unit is one round trip: generate, `write_trace`,
    `read_trace` and `replay_verify` at 1e-9.

    Why: it is the only workload whose time goes to writing and parsing JSONL
    (about 13 KB a step at full support) and to mix_core's validated public
    path during replay; it also drives top_p_truncate and mix_rows at ten
    times the support of decode_long.  Writes and reads are timed apart, so
    a gain on one side that costs the other shows.
    """

    name = "trace_audit"
    init_seed = 0
    request_names = ("trace_audit.round_trip",)
    n_prompts = 32
    prompt_len = 16
    budget = 96

    def __init__(self, seed, workdir, model=None):
        super().__init__(seed, workdir, model)
        rng = _rng(self.seed, 3)
        self.prompts = [tuple(int(t) for t in rng.integers(0, 256, self.prompt_len)) for _ in range(self.n_prompts)]
        self.trace_path = self.workdir / f"{self.name}.jsonl"

    def _cfg(self, seed: int):
        return _gen_cfg("moi", 1.0, 1.0, 1.0, seed, self.budget)

    def warm_up(self):
        pipeline.generate(self.model, self.prompts[0], self._cfg(0))

    def targets(self):
        return (Target("trace_audit.round_trip", ((TraceAudit, "round_trip"),)),)

    def round_trip(self, prompt, cfg):
        t0 = time.perf_counter()
        result = pipeline.generate(self.model, prompt, cfg)
        t1 = time.perf_counter()
        pipeline.write_trace(result, self.trace_path)
        t2 = time.perf_counter()
        records = pipeline.read_trace(self.trace_path)
        report = pipeline.replay_verify(records, cfg, self.model.config.vocab, 1e-9)
        t3 = time.perf_counter()
        return result, records, report, (t1 - t0, t2 - t1, t3 - t2)

    def unit(self, i):
        out = UnitResult()
        cfg = self._cfg(_derived_seed(self.seed, 3, i))
        t0 = time.perf_counter()
        result, records, report, (gen_s, write_s, replay_s) = self.round_trip(self.prompts[i % self.n_prompts], cfg)
        out.samples.append(("round_trip", time.perf_counter() - t0))
        out.operations += 1
        out.generated.append(("moi", len(result.tokens), gen_s))
        out.streams.append(result.tokens)
        steps = len(records)
        out.extra.update(steps=steps, write_s=write_s, replay_s=replay_s)
        out.check(report.passed, f"round trip {i}: {report.summary()}")
        out.check(_same_records(result.records, records), f"round trip {i}: read_trace differs from the written records")
        return out

    def own_metrics(self, units, unit_seconds):
        write = statistics.median(u.extra["steps"] / u.extra["write_s"] for u in units)
        replay = statistics.median(u.extra["steps"] / u.extra["replay_s"] for u in units)
        return {"trace_write_steps_s": (write, "steps/s"), "replay_steps_s": (replay, "steps/s")}


def _same_records(written, read) -> bool:
    """Bit-for-bit equality of two StepRecord lists."""
    if len(written) != len(read):
        return False
    for a, b in zip(written, read):
        if (a.step, a.token, a.mode) != (b.step, b.token, b.mode):
            return False
        if np.float64(a.entropy).tobytes() != np.float64(b.entropy).tobytes():
            return False
        for x, y in ((a.support, b.support), (a.probs, b.probs), (a.weights, b.weights)):
            x = np.asarray(x)
            y = np.asarray(y, dtype=x.dtype)
            if x.shape != y.shape or x.tobytes() != y.tobytes():
                return False
    return True


WORKLOADS = {cls.name: cls for cls in (DecodeLong, GridShort, TraceAudit)}
