"""Grid harness, greedy-recovery scoring, best-of-N, and throughput."""

import math
from dataclasses import replace

import numpy as np
import pytest

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
    save_results,
    throughput_bench,
    trial_seed,
)
from moi.mix_core import MixConfig
from moi.pipeline import GenConfig, prefill
from moi.sampler import SamplerConfig

PROMPTS = ((1, 2), (3, 4))


def failing_scorer(model, cfg, prompts, budget):
    """External scorer that fails on beta > 1 (module level, so a worker
    process can unpickle it)."""
    if cfg.mix.beta > 1.0:
        raise RuntimeError(f"boom at beta {cfg.mix.beta}")
    return 0.5


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

    def test_greedy_decode_from_prefix_matches(self, small_model):
        start = prefill(small_model, (1, 2, 3))
        for budget in (1, 5, 20):
            want = greedy_decode(small_model, (1, 2, 3), budget)
            assert greedy_decode(small_model, (1, 2, 3), budget, prefix=start) == want
        with pytest.raises(ValueError, match="prompt"):
            greedy_decode(small_model, (1, 2), 5, prefix=start)

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

    def test_cache_from_another_model_raises(self, small_model, bench_model):
        cfg = GenConfig(mix=MixConfig("moi", 1.0), sampler=SamplerConfig(), max_tokens=4)
        cache = {}
        greedy_recovery_score(bench_model, cfg, [(1, 2)], 4, _ref_cache=cache)
        with pytest.raises(ValueError, match="another model"):
            greedy_recovery_score(small_model, cfg, [(1, 2)], 4, _ref_cache=cache)

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
        assert row.tokens_per_s is None

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
        assert a.startswith(b"mode,beta,top_p,temperature,seed,score,tokens_per_s\n")
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
        assert data.count(b",error,") == 4 and b"boom" not in data

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

    def test_results_csv_round_trip(self, small_model, tmp_path):
        table = toy_table()
        save_results(table, tmp_path / "r.csv")
        back = load_results(tmp_path / "r.csv")
        assert back.rows == table.rows

    @pytest.mark.parametrize(
        "row, message",
        [
            ("moi,1.0,0.9,0.7,0,0.5", "line 3: not enough values to unpack"),
            ("moi,x,0.9,0.7,0,0.5,", "line 3: could not convert string to float: 'x'"),
            ("bogus,1.0,0.9,0.7,0,0.5,", "line 3: unknown mode 'bogus'"),
        ],
    )
    def test_bad_results_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "r.csv"
        path.write_text(f"{','.join(RESULTS_HEADER)}\nmoi,1.0,0.9,0.7,0,error,\n{row}\n")
        with pytest.raises(ResultsFormatError, match=message):
            load_results(path)


class TestBestOfN:
    def test_n1_gain_exactly_zero(self):
        for replicates in (0, 64):
            curve = best_of_n_gain(toy_table(), "beta", 1, replicates=replicates, seed=1)
            assert curve[0] == (1, 0.0)

    def test_exact_three_value_table(self):
        curve = best_of_n_gain(toy_table(), "beta", 3, replicates=0)
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
        curve = best_of_n_gain(table, "beta", 6, replicates=0)
        gains = [g for _, g in curve]
        assert all(a <= b + 1e-12 for a, b in zip(gains, gains[1:]))

    def test_monte_carlo_converges_to_exact(self):
        exact = dict(best_of_n_gain(toy_table(), "beta", 3, replicates=0))
        mc = dict(best_of_n_gain(toy_table(), "beta", 3, replicates=20000, seed=5))
        assert mc[3] == pytest.approx(exact[3], abs=0.01)

    def test_seed_averaging_within_cells(self):
        rows = [
            TrialRow("moi", 1.0, 0.95, 0.6, s, sc)
            for s, sc in ((0, 0.1), (1, 0.3))
        ] + [TrialRow("moi", 2.0, 0.95, 0.6, 0, 0.8)]
        curve = best_of_n_gain(ResultsTable(rows=rows), "beta", 2, replicates=0)
        # cells: beta1 -> 0.2, beta2 -> 0.8; N=2 gain = 0.8 - (0.2+0.8)/2
        assert dict(curve)[2] == pytest.approx(0.3, abs=1e-12)

    def test_rows_off_default_ignored(self):
        rows = toy_table().rows + [TrialRow("moi", 9.0, 0.4, 0.6, 0, 1.0)]
        curve = best_of_n_gain(ResultsTable(rows=rows), "beta", 3, replicates=0)
        assert dict(curve)[3] == pytest.approx(0.3, abs=1e-12)

    def test_n_exceeding_values_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            best_of_n_gain(toy_table(), "beta", 4, replicates=0)

    def test_missing_cells_rejected(self):
        with pytest.raises(ValueError, match="no usable rows"):
            best_of_n_gain(toy_table(), "top_p", 1, replicates=0, defaults={"beta": 99.0, "top_p": 0.95, "temperature": 0.6})

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


class TestSpecValidation:
    def test_task_requires_prompts(self, small_model):
        with pytest.raises(ValueError, match="nonempty"):
            TaskSpec(model=small_model, prompts=(), budget=4)

    def test_external_scorer_needs_callable(self, small_model):
        with pytest.raises(ValueError, match="callable"):
            TaskSpec(model=small_model, prompts=PROMPTS, budget=4, kind="external_scorer")

    def test_grid_lists_nonempty(self, small_model):
        with pytest.raises(ValueError, match="betas"):
            GridSpec(task=small_task(small_model), betas=())
