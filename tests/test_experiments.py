"""Grid harness, greedy-recovery scoring, best-of-N, and throughput."""

import csv
import hashlib
import io
import itertools
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moi import experiments, kernels
from moi.experiments import (
    RESULTS_HEADER,
    GridSpec,
    ResultsFormatError,
    ResultsTable,
    TaskSpec,
    TrialRow,
    best_of_n_gain,
    greedy_decode,
    greedy_recovery_score,
    load_results,
    run_grid,
    throughput_bench,
    trial_seed,
)
from moi.mix_core import MixConfig
from moi.pipeline import GenConfig
from moi.sampler import SamplerConfig
from moi.toy_lm import save_weights

PROMPTS = ((1, 2), (3, 4))


def failing_scorer(model, cfg, prompts, budget):
    """External scorer that fails on beta > 1 (module level, so a worker
    process can unpickle it)."""
    if cfg.mix.beta > 1.0:
        raise RuntimeError(f"boom at beta {cfg.mix.beta}")
    return 0.5


def fixed_scorer(model, cfg, prompts, budget):
    """External scorer with a fixed score per beta; NaN at beta 2, which
    the CSV writes as "error"."""
    return {1.0: 0.25, 2.0: math.nan, 3.0: 0.75}[cfg.mix.beta]


def small_task(model, budget=6) -> TaskSpec:
    return TaskSpec(model=model, prompts=PROMPTS, budget=budget)


def toy_table(scores=(0.2, 0.5, 0.8)) -> ResultsTable:
    rows = [
        TrialRow(mode="moi", beta=float(i + 1), top_p=0.95, temperature=0.6, seed=0, score=s)
        for i, s in enumerate(scores)
    ]
    return ResultsTable(rows=rows)


class TestTrialSeed:
    def test_stable(self):
        assert trial_seed(3, 5, 1) == trial_seed(3, 5, 1)

    def test_distinct_across_indices(self):
        seeds = {trial_seed(0, ci, ri) for ci in range(8) for ri in range(4)}
        assert len(seeds) == 32


class TestGreedyRecovery:
    def test_argmax_sampling_recovers_greedy(self, small_model):
        cfg = GenConfig(
            mix=MixConfig("standard", 1.0),
            sampler=SamplerConfig(temperature=0.01, top_p=1.0, seed=0),
            max_tokens=6,
        )
        prompts = [(1, 2), (3, 4)]
        assert greedy_recovery_score(small_model, cfg, prompts, 6) == 1.0

    def test_zero_budget_rejected(self, small_model):
        cfg = GenConfig(mix=MixConfig("standard", 1.0), sampler=SamplerConfig(), max_tokens=1)
        with pytest.raises(ValueError, match="budget"):
            greedy_recovery_score(small_model, cfg, [(1,)], 0)

    def test_empty_prompt_set_rejected(self, small_model):
        cfg = GenConfig(mix=MixConfig("standard", 1.0), sampler=SamplerConfig(), max_tokens=1)
        with pytest.raises(ValueError, match="prompt set must be nonempty"):
            greedy_recovery_score(small_model, cfg, [], 2)

    def test_deterministic(self, small_model):
        cfg = GenConfig(
            mix=MixConfig("moi", 1.0),
            sampler=SamplerConfig(temperature=0.8, top_p=0.9, seed=12),
            max_tokens=5,
        )
        prompts = [(1, 2), (3, 4), (5, 6)]
        assert greedy_recovery_score(small_model, cfg, prompts, 5) == greedy_recovery_score(
            small_model, cfg, prompts, 5
        )

    def test_shared_cache_gives_the_uncached_scores(self, small_model):
        prompts = [(1, 2), (3, 4), (5,), (1, 2)]
        cache = {}
        for seed in range(4):
            for beta in (0.5, 4.0):
                cfg = GenConfig(mix=MixConfig("moi", beta), sampler=SamplerConfig(0.8, 0.9, seed=seed), max_tokens=5)
                cached = greedy_recovery_score(small_model, cfg, prompts, 5, _ref_cache=cache)
                assert cached == greedy_recovery_score(small_model, cfg, prompts, 5)
        assert set(cache) == {((1, 2), 5, frozenset()), ((3, 4), 5, frozenset()), ((5,), 5, frozenset())}

    def test_cache_keyed_by_budget_and_stop_tokens(self, bench_model):
        prompts = [tuple(b"ab"), tuple(b"the")]
        cfg = GenConfig(mix=MixConfig("standard", 1.0), sampler=SamplerConfig(0.01, 1.0, seed=0), max_tokens=5)
        fresh = greedy_recovery_score(bench_model, cfg, prompts, 3)
        assert fresh == 1.0
        cache = {}
        greedy_recovery_score(bench_model, cfg, prompts, 5, _ref_cache=cache)
        assert greedy_recovery_score(bench_model, cfg, prompts, 3, _ref_cache=cache) == fresh
        stop = greedy_decode(bench_model, prompts[0], 5)[1]
        stopped = replace(cfg, stop_tokens=frozenset({stop}))
        assert greedy_recovery_score(bench_model, stopped, prompts, 5, _ref_cache=cache) == (
            greedy_recovery_score(bench_model, stopped, prompts, 5)
        )

    def test_cache_from_another_model_raises(self, small_model, bench_model, monkeypatch):
        cfg = GenConfig(mix=MixConfig("moi", 1.0), sampler=SamplerConfig(), max_tokens=4)
        cache = {}
        greedy_recovery_score(bench_model, cfg, [(1, 2), (3, 4)], 4, _ref_cache=cache)
        # before any batched forward: the two prompts would batch
        monkeypatch.setattr(kernels, "decode_rows", lambda *a: pytest.fail("a batched forward ran"))
        with pytest.raises(ValueError, match="another model"):
            greedy_recovery_score(small_model, cfg, [(1, 2), (3, 4)], 4, _ref_cache=cache)

    def test_greedy_decode_stops_at_stop_token(self, stub_model):
        stop = stub_model.token_at(1)
        tokens = greedy_decode(stub_model, [0], 20, frozenset({stop}))
        assert tokens[-1] == stop and len(tokens) == 2


class TestRunGrid:
    def test_single_cell_single_seed(self, small_model):
        spec = GridSpec(
            task=small_task(small_model),
            betas=(1.0,),
            top_ps=(0.9,),
            temperatures=(0.7,),
            modes=("moi",),
            seeds=(0,),
        )
        table = run_grid(spec)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.mode == "moi" and 0.0 <= row.score <= 1.0

    def test_row_order_and_count(self, small_model):
        spec = GridSpec(
            task=small_task(small_model, budget=4),
            betas=(0.5, 1.0),
            top_ps=(0.9,),
            temperatures=(0.7, 1.0),
            modes=("standard", "moi"),
            seeds=(0, 1),
        )
        table = run_grid(spec)
        assert len(table.rows) == 2 * 2 * 1 * 2 * 2
        assert [r.mode for r in table.rows[:8]] == ["standard"] * 8
        assert table.rows[0].beta == 0.5 and table.rows[0].seed == 0 and table.rows[1].seed == 1

    # sha256 of this grid's CSV, recorded before `generate` started from a
    # Prefill; 704 of its 972 generations end on a stop token
    PINNED_GRID_SHA256 = "15a4f37bb30d1a41154fc4d780e9d70b326a46253aa44a0bd30897d043f2405c"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_grid_csv_bytes_are_pinned(self, bench_model, tmp_path, jobs):
        # three modes; a repeated prompt, a lone length and two length groups;
        # stop tokens; T from near-greedy to 1 and top_p up to 1.0
        prompts = [tuple(p) for p in (b"ab", b"the", b"q", b"ab", b"xyz", b"hi", b"no")]
        spec = GridSpec(
            task=TaskSpec(model=bench_model, prompts=prompts, budget=6, stop_tokens=frozenset({26, 167, 197, 247})),
            betas=(0.5, 2.0),
            top_ps=(0.6, 0.95, 1.0),
            temperatures=(0.05, 0.6, 1.0),
            modes=("standard", "direct_mixture", "moi"),
            seeds=(0, 1, 2),
        )
        table = run_grid(spec, out_path=tmp_path / "grid.csv", jobs=jobs)
        assert len(table.rows) == 162 and not table.errors
        assert hashlib.sha256((tmp_path / "grid.csv").read_bytes()).hexdigest() == self.PINNED_GRID_SHA256

    def test_csv_bit_identical_across_runs(self, small_model, tmp_path):
        spec = GridSpec(
            task=small_task(small_model, budget=4),
            betas=(0.5, 2.0),
            top_ps=(0.8,),
            temperatures=(0.7,),
            modes=("moi",),
            seeds=(0, 1),
        )
        run_grid(spec, out_path=tmp_path / "a.csv")
        run_grid(spec, out_path=tmp_path / "b.csv")
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        assert a.startswith(b"mode,beta,top_p,temperature,seed,score\n")
        assert not (tmp_path / "a.csv.partial").exists()

    def test_failed_trial_marked_and_grid_continues(self, small_model, tmp_path):
        def scorer(model, cfg, prompts, budget):
            if cfg.mix.beta > 1.0:
                raise RuntimeError("boom")
            return 0.5

        spec = GridSpec(
            task=TaskSpec(model=small_model, prompts=PROMPTS, budget=4, kind="external_scorer", scorer=scorer),
            betas=(0.5, 2.0),
            top_ps=(0.9,),
            temperatures=(0.7,),
            modes=("moi",),
            seeds=(0,),
        )
        table = run_grid(spec, out_path=tmp_path / "g.csv")
        assert table.rows[0].score == 0.5
        assert math.isnan(table.rows[1].score)
        text = (tmp_path / "g.csv").read_text()
        assert "error" in text

    def test_failed_trials_keep_their_error(self, small_model, tmp_path):
        spec = GridSpec(
            task=TaskSpec(model=small_model, prompts=PROMPTS, budget=4, kind="external_scorer", scorer=failing_scorer),
            betas=(0.5, 2.0, 3.0),
            top_ps=(0.9,),
            temperatures=(0.7,),
            modes=("moi",),
            seeds=(0, 1),
        )
        serial = run_grid(spec, out_path=tmp_path / "serial.csv", jobs=1)
        parallel = run_grid(spec, out_path=tmp_path / "par.csv", jobs=2)
        want = {2: "RuntimeError: boom at beta 2.0", 3: "RuntimeError: boom at beta 2.0",
                4: "RuntimeError: boom at beta 3.0", 5: "RuntimeError: boom at beta 3.0"}
        assert serial.errors == want
        assert parallel.errors == want
        assert all(math.isnan(serial.rows[i].score) for i in want)
        data = (tmp_path / "serial.csv").read_bytes()
        assert data == (tmp_path / "par.csv").read_bytes()
        assert data.count(b",error\n") == 4 and b"boom" not in data

    def test_infinite_score_is_a_failed_trial(self, small_model, tmp_path):
        # an inf score was written as "inf", which load_results refuses
        task = TaskSpec(model=small_model, prompts=PROMPTS, budget=1, kind="external_scorer",
                        scorer=lambda model, cfg, prompts, budget: {1.0: math.inf, 2.0: -math.inf, 3.0: 0.5}[cfg.mix.beta])
        spec = GridSpec(task=task, betas=(1.0, 2.0, 3.0), top_ps=(0.9,), temperatures=(1.0,), seeds=(0,))
        table = run_grid(spec, out_path=tmp_path / "r.csv")
        assert table.errors == {0: "ValueError: scorer returned inf, not a finite score",
                                1: "ValueError: scorer returned -inf, not a finite score"}
        assert (tmp_path / "r.csv").read_text().endswith("moi,1.0,0.9,1.0,0,error\nmoi,2.0,0.9,1.0,0,error\nmoi,3.0,0.9,1.0,0,0.5\n")
        assert [repr(r.score) for r in load_results(tmp_path / "r.csv").rows] == ["nan", "nan", "0.5"]

    def test_infinite_temperature_rejected_before_any_row(self, small_model, tmp_path):
        # T = inf gave uniform probabilities and a temperature cell of "inf",
        # which load_results refuses
        task = TaskSpec(model=small_model, prompts=PROMPTS, budget=1, kind="external_scorer", scorer=fixed_scorer)
        spec = GridSpec(task=task, betas=(1.0,), top_ps=(0.9,), temperatures=(math.inf,), seeds=(0,))
        with pytest.raises(ValueError, match="temperature must be finite and positive, got inf"):
            run_grid(spec, out_path=tmp_path / "r.csv")
        assert list(tmp_path.iterdir()) == []

    def test_prefix_reuse_keeps_csv_bytes(self, small_model, tmp_path):
        # one cache per run_grid call (per worker with jobs > 1) prefills each
        # prompt once; every row must still equal a trial scored from scratch
        prompts = ((1, 2), (3, 4), (5, 6, 7), (8,))
        spec = GridSpec(
            task=TaskSpec(model=small_model, prompts=prompts, budget=5),
            betas=(0.5, 2.0),
            top_ps=(0.9,),
            temperatures=(0.7, 1.0),
            modes=("standard", "moi"),
            seeds=(0, 1, 2),
        )
        table = run_grid(spec, out_path=tmp_path / "a.csv", jobs=1)
        run_grid(spec, out_path=tmp_path / "b.csv", jobs=1)
        run_grid(spec, out_path=tmp_path / "c.csv", jobs=2)
        data = (tmp_path / "a.csv").read_bytes()
        assert data == (tmp_path / "b.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
        cfgs = [
            GenConfig(mix=MixConfig(mode, beta), sampler=SamplerConfig(temperature, top_p, trial_seed(seed, ci, ri)),
                      max_tokens=5)
            for ci, (mode, beta, top_p, temperature) in enumerate(spec.configs())
            for ri, seed in enumerate(spec.seeds)
        ]
        assert [row.score for row in table.rows] == [
            greedy_recovery_score(small_model, cfg, prompts, 5) for cfg in cfgs
        ]

    def test_parallel_matches_serial(self, small_model, tmp_path):
        spec = GridSpec(
            task=small_task(small_model, budget=3),
            betas=(0.5, 1.0),
            top_ps=(0.9,),
            temperatures=(0.7,),
            modes=("moi",),
            seeds=(0, 1),
        )
        run_grid(spec, out_path=tmp_path / "serial.csv", jobs=1)
        run_grid(spec, out_path=tmp_path / "par.csv", jobs=2)
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "par.csv").read_bytes()

    def test_parallel_grid_loads_no_weights_in_this_process(self, small_model, tmp_path, monkeypatch):
        path = tmp_path / "m.tlm"
        save_weights(small_model, path)
        spec = GridSpec(
            task=TaskSpec(model=path, prompts=PROMPTS, budget=3),
            betas=(0.5, 1.0),
            top_ps=(0.9,),
            temperatures=(0.7,),
            modes=("moi",),
            seeds=(0, 1),
        )
        run_grid(spec, out_path=tmp_path / "serial.csv", jobs=1)
        calls = []
        real = experiments.load_weights
        monkeypatch.setattr(experiments, "load_weights", lambda p: calls.append(p) or real(p))
        run_grid(spec, out_path=tmp_path / "par.csv", jobs=2)
        # the workers load the file; this process never does
        assert calls == []
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "par.csv").read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unloadable_weights_raise_their_own_error(self, tmp_path, jobs):
        # not BrokenProcessPool, and not a grid of failed trials
        spec = GridSpec(task=TaskSpec(model=tmp_path / "missing.tlm", prompts=PROMPTS, budget=3), seeds=(0,))
        with pytest.raises(FileNotFoundError, match="missing.tlm"):
            run_grid(spec, jobs=jobs)

    def test_results_csv_round_trip(self, small_model, tmp_path):
        task = TaskSpec(model=small_model, prompts=PROMPTS, budget=2, kind="external_scorer", scorer=fixed_scorer)
        spec = GridSpec(task=task, betas=(1.0, 2.0, 3.0), top_ps=(0.9,), temperatures=(0.7,), seeds=(0, 1))
        table = run_grid(spec, out_path=tmp_path / "r.csv")
        back = load_results(tmp_path / "r.csv")
        # repr, because a NaN score never equals itself
        fields = [(r.mode, r.beta, r.top_p, r.temperature, r.seed, repr(r.score)) for r in back.rows]
        assert fields == [(r.mode, r.beta, r.top_p, r.temperature, r.seed, repr(r.score)) for r in table.rows]
        assert [f[-1] for f in fields] == ["0.25", "0.25", "nan", "nan", "0.75", "0.75"]
        assert "moi,2.0,0.9,0.7," in (tmp_path / "r.csv").read_text() and not table.errors

    @pytest.mark.parametrize(
        "row, message",
        [
            ("moi,1.0,0.9,0.7,0", "line 3: not enough values to unpack"),
            ("moi,x,0.9,0.7,0,0.5", "line 3: could not convert string to float: 'x'"),
            ("bogus,1.0,0.9,0.7,0,0.5", "line 3: unknown mode 'bogus'"),
        ],
    )
    def test_bad_results_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "r.csv"
        path.write_text(f"{','.join(RESULTS_HEADER)}\nmoi,1.0,0.9,0.7,0,error\n{row}\n")
        with pytest.raises(ResultsFormatError, match=message):
            load_results(path)

    def test_seven_column_results_rejected_at_line_1(self, tmp_path):
        # a results file in the older seven-column format
        path = tmp_path / "r.csv"
        path.write_text("mode,beta,top_p,temperature,seed,score,tokens_per_s\nmoi,1.0,0.9,0.7,0,0.5,\n")
        with pytest.raises(ResultsFormatError, match="line 1: unexpected results header"):
            load_results(path)


VALID_RESULTS = (
    list(RESULTS_HEADER),
    ["moi", "1.0", "0.9", "0.7", "0", "0.5"],
    ["standard", "2.0", "0.95", "0.6", "3", "error"],
    ["direct_mixture", "0.25", "0.4", "1.0", "12", "1.0"],
)
RESULTS_FUZZ_FIELDS = ("", "x", "nan", "inf", "-inf", "1e400", "-1", "1.5", "0", "7", "error", "moi", "standard",
                       "1" + "0" * 30, "a,b", 'say "hi"', "1\n2", " 3 ")


@st.composite
def mutated_results_csv(draw):
    """A valid results CSV after one to three mutations: a field dropped,
    swapped for another token (quoted by the writer where it must be) or
    given an extra field, or a row dropped; then, half the time, the bytes
    truncated or spliced with random bytes."""
    rows = [list(r) for r in VALID_RESULTS]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(("drop_field", "swap", "extra", "drop_row")))
        if kind == "drop_row" and len(rows) > 1:
            del rows[i]
        elif kind == "extra":
            rows[i].append(draw(st.sampled_from(RESULTS_FUZZ_FIELDS)))
        elif rows[i]:
            j = draw(st.integers(0, len(rows[i]) - 1))
            if kind == "drop_field":
                del rows[i][j]
            else:
                rows[i][j] = draw(st.sampled_from(RESULTS_FUZZ_FIELDS))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    data = out.getvalue().encode()
    cut = draw(st.sampled_from(("none", "none", "truncate", "splice")))
    if cut == "truncate":
        data = data[: draw(st.integers(0, len(data)))]
    elif cut == "splice":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return data


class TestResultsFuzz:
    @settings(deadline=None, max_examples=400)
    @given(data=mutated_results_csv())
    def test_mutated_csv_is_format_error_or_exact(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz-results.csv"
        path.write_bytes(data)
        try:
            table = load_results(path)
        except ResultsFormatError:
            return
        # no silent load: one row per CSV line after the header, each
        # field read as it is written
        header, *rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
        assert tuple(header) == RESULTS_HEADER and len(table.rows) == len(rows)
        for row, fields in zip(table.rows, rows):
            mode, beta, top_p, temperature, seed, score = fields
            assert row.mode == mode and row.seed == int(seed)
            assert (row.beta, row.top_p, row.temperature) == (float(beta), float(top_p), float(temperature))
            assert math.isnan(row.score) if score == "error" else row.score == float(score)
            assert all(math.isfinite(x) for x in (row.beta, row.top_p, row.temperature))

    def test_non_utf8_byte_is_format_error(self, tmp_path):
        # once a raw UnicodeDecodeError
        path = tmp_path / "r.csv"
        path.write_bytes(f"{','.join(RESULTS_HEADER)}\nmoi,1.0,0.9,0.7,0,0.5\nmoi,1.0,0.9,0.7,1,0.\xff\n".encode("latin-1"))
        with pytest.raises(ResultsFormatError, match="line 3: not UTF-8"):
            load_results(path)

    @pytest.mark.parametrize("field", ["nan", "inf", "1e400"])
    def test_non_finite_number_is_format_error(self, tmp_path, field):
        path = tmp_path / "r.csv"
        path.write_text(f"{','.join(RESULTS_HEADER)}\nmoi,{field},0.9,0.7,0,0.5\n")
        with pytest.raises(ResultsFormatError, match="line 2: .* is not a finite number"):
            load_results(path)

    @pytest.mark.parametrize("column", ["beta", "top_p", "temperature", "score"])
    @pytest.mark.parametrize("field", ["1_0", " 0.95 ", "+3", "\u0661\u0662", ".5", "1."])
    def test_number_the_writer_never_writes_is_format_error(self, tmp_path, column, field):
        # float() reads 1_0 as 10 and Arabic-Indic 12 as 12; the fuzz oracle
        # parses with float() itself, so it cannot see these
        row = dict(zip(RESULTS_HEADER, ["moi", "1.0", "0.9", "0.7", "0", "0.5"]), **{column: field})
        path = tmp_path / "r.csv"
        path.write_text(f"{','.join(RESULTS_HEADER)}\nmoi,1.0,0.9,0.7,0,0.5\n{','.join(row.values())}\n",
                        encoding="utf-8")
        with pytest.raises(ResultsFormatError, match="line 3: .* is not a number as the writer writes it"):
            load_results(path)

    @pytest.mark.parametrize("field", ["1_0", " 3 ", "+3", "\u0661\u0662"])
    def test_seed_the_writer_never_writes_is_format_error(self, tmp_path, field):
        path = tmp_path / "r.csv"
        path.write_text(f"{','.join(RESULTS_HEADER)}\nmoi,1.0,0.9,0.7,{field},0.5\n", encoding="utf-8")
        with pytest.raises(ResultsFormatError, match="line 2: .* is not an integer as the writer writes it"):
            load_results(path)

    def test_every_form_the_writer_writes_loads(self, small_model, tmp_path):
        # exponents both ways, negative scores and 64-bit trial seeds
        values = (1e-05, 1e16, 2.5e-300, 0.1, 3.0)
        task = TaskSpec(model=small_model, prompts=PROMPTS, budget=1, kind="external_scorer",
                        scorer=lambda model, cfg, prompts, budget: -cfg.mix.beta)
        spec = GridSpec(task=task, betas=values, top_ps=(0.9,), temperatures=(1e-05,), seeds=(0, 1))
        table = run_grid(spec, out_path=tmp_path / "r.csv")
        assert not table.errors
        assert load_results(tmp_path / "r.csv").rows == table.rows


def enumerated_gain(scores, n: int) -> Fraction:
    """The best-of-n gain by enumeration, in exact rationals: the mean over
    every n-subset of its best score minus its mean score."""
    subsets = list(itertools.combinations(map(Fraction, scores), n))
    return sum(max(c) - sum(c) / n for c in subsets) / len(subsets)


class TestBestOfN:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0)), st.floats(0.0, 1.0)), min_size=1, max_size=8))
    def test_matches_enumeration(self, scores):
        curve = best_of_n_gain(toy_table(scores), "beta", len(scores))
        assert curve[0] == (1, 0.0)
        for n, gain in curve:
            assert abs(gain - float(enumerated_gain(scores, n))) <= 1e-15

    def test_forty_values_in_under_a_second(self):
        scores = np.random.Generator(np.random.PCG64(4)).uniform(size=40)
        t0 = time.perf_counter()
        curve = best_of_n_gain(toy_table(scores), "beta", 20)
        assert time.perf_counter() - t0 < 1.0
        gains = [g for _, g in curve]
        assert gains[0] == 0.0
        assert all(a <= b + 1e-15 for a, b in zip(gains, gains[1:]))
        assert gains[-1] < scores.max() - scores.mean()

    def test_n1_gain_exactly_zero(self):
        curve = best_of_n_gain(toy_table(), "beta", 1)
        assert curve[0] == (1, 0.0)

    def test_exact_three_value_table(self):
        curve = best_of_n_gain(toy_table(), "beta", 3)
        gains = dict(curve)
        assert gains[3] == pytest.approx(0.3, abs=1e-12)
        assert gains[2] == pytest.approx(0.2, abs=1e-12)

    def test_exact_curve_non_decreasing(self):
        rng = np.random.Generator(np.random.PCG64(3))
        scores = rng.uniform(size=6)
        table = ResultsTable(
            rows=[
                TrialRow("moi", float(i + 1), 0.95, 0.6, 0, float(s))
                for i, s in enumerate(scores)
            ]
        )
        curve = best_of_n_gain(table, "beta", 6)
        gains = [g for _, g in curve]
        assert all(a <= b + 1e-12 for a, b in zip(gains, gains[1:]))

    def test_seed_averaging_within_cells(self):
        rows = [
            TrialRow("moi", 1.0, 0.95, 0.6, s, sc)
            for s, sc in ((0, 0.1), (1, 0.3))
        ] + [TrialRow("moi", 2.0, 0.95, 0.6, 0, 0.8)]
        curve = best_of_n_gain(ResultsTable(rows=rows), "beta", 2)
        # cells: beta1 -> 0.2, beta2 -> 0.8; N=2 gain = 0.8 - (0.2+0.8)/2
        assert dict(curve)[2] == pytest.approx(0.3, abs=1e-12)

    def test_rows_off_default_ignored(self):
        rows = toy_table().rows + [TrialRow("moi", 9.0, 0.4, 0.6, 0, 1.0)]
        curve = best_of_n_gain(ResultsTable(rows=rows), "beta", 3)
        assert dict(curve)[3] == pytest.approx(0.3, abs=1e-12)

    def test_rows_of_another_mode_or_failed_ignored(self):
        rows = toy_table().rows + [TrialRow("standard", 9.0, 0.95, 0.6, 0, 1.0), TrialRow("moi", 10.0, 0.95, 0.6, 0, math.nan)]
        curve = best_of_n_gain(ResultsTable(rows=rows), "beta", 3)
        assert dict(curve)[3] == pytest.approx(0.3, abs=1e-12)
        with pytest.raises(ValueError, match="exceeds the 3 distinct values"):
            best_of_n_gain(ResultsTable(rows=rows), "beta", 4)

    @pytest.mark.parametrize("max_n", [0, -1], ids=["max_n-0", "max_n-negative"])
    def test_bad_count_rejected(self, max_n):
        with pytest.raises(ValueError, match="max_n must be >= 1"):
            best_of_n_gain(toy_table(), "beta", max_n)

    def test_n_exceeding_values_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            best_of_n_gain(toy_table(), "beta", 4)

    def test_missing_cells_rejected(self):
        with pytest.raises(ValueError, match="no usable rows"):
            best_of_n_gain(toy_table(), "top_p", 1, defaults={"beta": 99.0, "top_p": 0.95, "temperature": 0.6})

    def test_bad_param_rejected(self):
        with pytest.raises(ValueError, match="param"):
            best_of_n_gain(toy_table(), "gamma", 1)


class TestThroughputBench:
    def test_report_fields_and_rates(self, small_model):
        base = GenConfig(mix=MixConfig("standard", 1.0), sampler=SamplerConfig(seed=0), max_tokens=24)
        variant = GenConfig(mix=MixConfig("moi", 1.0), sampler=SamplerConfig(seed=0), max_tokens=24)
        report = throughput_bench(
            small_model, base, variant, [(1, 2, 3), (4, 5, 6)], budget=24, runs=2
        )
        assert report.baseline_input_rate > 0 and report.baseline_output_rate > 0
        assert report.variant_input_rate > 0 and report.variant_output_rate > 0
        text = report.format_table()
        assert "standard" in text and "Overhead" in text

    def test_zero_budget_rejected(self, small_model):
        cfg = GenConfig(mix=MixConfig("standard", 1.0), sampler=SamplerConfig(), max_tokens=1)
        with pytest.raises(ValueError):
            throughput_bench(small_model, cfg, cfg, [(1,)], budget=0)

    @pytest.mark.parametrize("runs", [0, -1])
    def test_no_runs_rejected(self, small_model, runs):
        # once an all-NaN report
        cfg = GenConfig(mix=MixConfig("standard", 1.0), sampler=SamplerConfig(), max_tokens=1)
        with pytest.raises(ValueError, match=f"runs must be >= 1, got {runs}"):
            throughput_bench(small_model, cfg, cfg, [(1,)], budget=2, runs=runs)


class TestSpecValidation:
    def test_task_requires_prompts(self, small_model):
        with pytest.raises(ValueError, match="nonempty"):
            TaskSpec(model=small_model, prompts=(), budget=4)

    def test_task_token_ids_must_be_integers(self, small_model):
        for bad in ({"prompts": [(1, 2.5)]}, {"prompts": ["ab"]}, {"stop_tokens": "ab"}):
            with pytest.raises(TypeError):
                TaskSpec(model=small_model, budget=4, **{"prompts": PROMPTS, **bad})
        task = TaskSpec(model=small_model, prompts=[np.array([1, 2])], budget=4, stop_tokens=[np.int64(3)])
        assert (task.prompts, task.stop_tokens) == (((1, 2),), frozenset({3}))

    def test_bool_prompt_token_rejected(self, small_model):
        with pytest.raises(TypeError, match="bool"):
            TaskSpec(model=small_model, prompts=[(True, 2)], budget=4)

    def test_bool_stop_token_rejected(self, small_model):
        with pytest.raises(TypeError, match="bool"):
            TaskSpec(model=small_model, prompts=PROMPTS, budget=4, stop_tokens=[False])

    def test_external_scorer_needs_callable(self, small_model):
        with pytest.raises(ValueError, match="callable"):
            TaskSpec(model=small_model, prompts=PROMPTS, budget=4, kind="external_scorer")

    def test_grid_lists_nonempty(self, small_model):
        with pytest.raises(ValueError, match="betas"):
            GridSpec(task=small_task(small_model), betas=())

    def test_grid_seeds_non_negative(self, small_model):
        # trial_seed's SeedSequence raised on it, naming no seed, once the grid ran
        with pytest.raises(ValueError, match="seeds must be a non-negative integer, got -1"):
            GridSpec(task=small_task(small_model), seeds=(0, -1))
