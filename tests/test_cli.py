"""End-to-end CLI contract: exit codes, determinism, artifacts."""

import csv
import json
import os
import subprocess
import sys

import pytest

from moi import cli

CLI = [sys.executable, "-m", "moi.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.tlm"
    proc = run_cli("init-model", "--out", str(path), "--seed", "9")
    assert proc.returncode == 0, proc.stderr
    return path


class TestInitModel:
    def test_creates_loadable_model(self, model_file):
        from moi.toy_lm import load_weights

        model = load_weights(model_file)
        assert model.config.vocab == 256
        assert model.config.init_seed == 9


class TestGenerate:
    def test_deterministic_stdout(self, model_file):
        args = (
            "generate", "--model", str(model_file), "--prompt", "hello",
            "--mode", "moi", "--beta", "1", "--temperature", "0.6",
            "--top-p", "0.95", "--max-tokens", "12", "--seed", "3",
        )
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout
        assert len(a.stdout.split()) == 12

    def test_missing_model_flag_is_usage_error(self):
        proc = run_cli("generate", "--prompt", "hi")
        assert proc.returncode == 2

    def test_nonexistent_model_is_runtime_error(self, tmp_path):
        proc = run_cli("generate", "--model", str(tmp_path / "nope.tlm"), "--prompt", "hi")
        assert proc.returncode == 1
        assert "error" in proc.stderr.lower()

    def test_moi_seed_env_overrides_flag(self, model_file):
        args = ("generate", "--model", str(model_file), "--prompt", "ab", "--max-tokens", "8")
        a = run_cli(*args, "--seed", "1", env_extra={"MOI_SEED": "77"})
        b = run_cli(*args, "--seed", "2", env_extra={"MOI_SEED": "77"})
        c = run_cli(*args, "--seed", "2")
        assert a.returncode == b.returncode == c.returncode == 0
        assert a.stdout == b.stdout
        assert c.stdout != b.stdout

    def test_trace_then_replay_roundtrip(self, model_file, tmp_path):
        trace = tmp_path / "run.jsonl"
        proc = run_cli(
            "generate", "--model", str(model_file), "--prompt", "xyz",
            "--mode", "moi", "--beta", "2.0", "--max-tokens", "10",
            "--seed", "5", "--trace", str(trace),
        )
        assert proc.returncode == 0
        assert len(trace.read_text().strip().split("\n")) == 10

        ok = run_cli("replay", "--trace", str(trace), "--mode", "moi", "--beta", "2.0")
        assert ok.returncode == 0, ok.stderr
        assert "pass" in ok.stdout

    def test_replay_fails_on_perturbed_trace(self, model_file, tmp_path):
        trace = tmp_path / "run.jsonl"
        run_cli(
            "generate", "--model", str(model_file), "--prompt", "xyz",
            "--mode", "moi", "--max-tokens", "6", "--seed", "5", "--trace", str(trace),
        )
        lines = trace.read_text().strip().split("\n")
        rec = json.loads(lines[2])
        rec["weights"][0] += 1e-4
        lines[2] = json.dumps(rec)
        trace.write_text("\n".join(lines) + "\n")
        proc = run_cli("replay", "--trace", str(trace), "--mode", "moi", "--beta", "1.0")
        assert proc.returncode == 1
        assert "step 2" in proc.stdout

    def test_replay_rejects_malformed_support(self, tmp_path):
        # both lines replayed as passing while `-1` wrapped to the last
        # vocabulary id and the later of two duplicate ids won
        trace = tmp_path / "bad.jsonl"
        trace.write_text(
            '{"step":0,"token":255,"H":0.0,"support":[-1],"probs":[1.0],"weights":[1.0],"mode":"standard"}\n'
            '{"step":1,"token":3,"H":0.0,"support":[3,3],"probs":[1.0,0.0],"weights":[0,1],"mode":"standard"}\n'
        )
        proc = run_cli("replay", "--trace", str(trace), "--mode", "standard")
        assert proc.returncode == 1
        assert "line 1: negative support id" in proc.stderr
        trace.write_text(trace.read_text().split("\n", 1)[1])
        proc = run_cli("replay", "--trace", str(trace), "--mode", "standard")
        assert proc.returncode == 1
        assert "line 1: duplicate support ids" in proc.stderr
        # non-integer ids used to be coerced by int() and replayed as passing
        for line in (
            '{"step":0,"token":"255","H":0.0,"support":[255.9],"probs":[1.0],"weights":[1.0],"mode":"standard"}',
            '{"step":1.7,"token":3,"H":0.0,"support":["3"],"probs":[1.0],"weights":[1.0],"mode":"standard"}',
        ):
            trace.write_text(line + "\n")
            proc = run_cli("replay", "--trace", str(trace), "--mode", "standard")
            assert proc.returncode == 1
            assert "line 1: bad record" in proc.stderr


class TestGrid:
    def test_small_grid(self, model_file, tmp_path):
        config = {
            "betas": [0.5, 2.0],
            "top_ps": [0.9],
            "temperatures": [0.7],
            "modes": ["moi"],
            "seeds": [0, 1],
            "task": {"kind": "greedy_recovery", "model": str(model_file), "prompts": ["ab", "xy"], "budget": 4},
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "results.csv"
        proc = run_cli("grid", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 4
        assert all(0.0 <= float(r["score"]) <= 1.0 for r in rows)
        assert all(r["tokens_per_s"] == "" for r in rows)

    def test_failed_trial_error_on_stderr(self, model_file, tmp_path):
        # prompt (2) + budget (255) exceeds the 256-token context: generate fails
        config = {
            "betas": [1.0], "top_ps": [0.9], "temperatures": [0.7], "modes": ["moi"], "seeds": [0],
            "task": {"kind": "greedy_recovery", "model": str(model_file), "prompts": ["ab"], "budget": 255},
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "results.csv"
        proc = run_cli("grid", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "1 failed trials" in proc.stdout
        assert "CSV line 2 (moi beta=1.0 top_p=0.9 temperature=0.7 seed=0): ValueError: prompt (2) + max_tokens (255)" in proc.stderr
        assert out.read_text() == "mode,beta,top_p,temperature,seed,score,tokens_per_s\nmoi,1.0,0.9,0.7,0,error,\n"

    def test_external_scorer_rejected_from_json(self, model_file, tmp_path):
        config = {"task": {"kind": "external_scorer", "model": str(model_file), "prompts": ["ab"], "budget": 4}}
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        proc = run_cli("grid", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv"))
        assert proc.returncode == 1
        assert "external_scorer" in proc.stderr


class TestGridConfigTypes:
    # each of these was once coerced silently or raised a bare TypeError
    @pytest.mark.parametrize(
        "field, value",
        [("stop_tokens", "ab"), ("budget", 2.9), ("prompt_ids", [[1, 2.7, True]]), ("betas", 1)],
    )
    def test_wrong_type_exits_1_naming_field(self, field, value, tmp_path, capsys):
        config = {"task": {"model": "model.tlm", "prompts": ["ab"]}}
        (config if field == "betas" else config["task"])[field] = value
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["grid", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 1
        assert f"error: grid config field {field!r} must be" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_nan_and_infinity_literals_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "grid.json"
        for literal in ("NaN", "Infinity", "-Infinity"):
            cfg_path.write_text('{"task": {"model": "model.tlm", "prompts": ["ab"]}, "temperatures": [%s]}' % literal)
            assert cli.main(["grid", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 1
            assert f"error: grid config: {literal} is not a JSON number" in capsys.readouterr().err

    def test_each_field_type_checked_exactly(self):
        bad = {
            "budget": True, "stop_tokens": [1.0], "seeds": [False], "prompt_ids": [1, 2], "prompts": "ab",
            "modes": [["moi"]], "betas": ["1"], "top_ps": [None], "temperatures": [0.6, [1.0]],
        }
        assert set(bad) == set(cli._GRID_FIELDS)
        for field, value in bad.items():
            with pytest.raises(cli.ConfigError, match=repr(field)):
                cli._check_grid_fields({field: value})

    def test_valid_task_loads_unchanged(self):
        spec = cli._task_from_json({"model": "m.tlm", "prompt_ids": [[1, 2]], "budget": 3, "stop_tokens": [7]})
        assert (spec.prompts, spec.budget, spec.stop_tokens) == (((1, 2),), 3, frozenset({7}))
        assert cli._task_from_json({"model": "m.tlm", "prompts": ["ab"]}).prompts == ((97, 98),)


class TestBestOfN:
    def test_exact_toy_table(self, tmp_path):
        results = tmp_path / "r.csv"
        results.write_text(
            "mode,beta,top_p,temperature,seed,score,tokens_per_s\n"
            "moi,1.0,0.95,0.6,0,0.2,\n"
            "moi,2.0,0.95,0.6,0,0.5,\n"
            "moi,3.0,0.95,0.6,0,0.8,\n"
        )
        out = tmp_path / "curve.csv"
        proc = run_cli(
            "bestofn", "--results", str(results), "--param", "beta",
            "--max-n", "3", "--replicates", "0", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(out.open()))
        assert float(rows[0]["expected_gain"]) == 0.0
        assert float(rows[2]["expected_gain"]) == pytest.approx(0.3, abs=1e-12)


class TestBlend:
    def test_blend_two_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text('{"dim": 2, "rows": [[0.0, 0.0], [2.0, 2.0]]}')
        b.write_text('{"dim": 2, "rows": [[4.0, 0.0]]}')
        out = tmp_path / "blend.json"
        proc = run_cli("blend", "--prompts", str(a), str(b), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        blended = json.loads(out.read_text())
        assert blended["dim"] == 2
        assert blended["rows"] == [[2.0, 0.0], [3.0, 1.0]]

    def test_empty_prompt_list_is_runtime_error(self, tmp_path):
        proc = run_cli("blend", "--out", str(tmp_path / "x.json"))
        assert proc.returncode == 1


class TestBench:
    def test_bench_writes_report(self, model_file, tmp_path):
        out = tmp_path / "bench.json"
        proc = run_cli(
            "bench", "--model", str(model_file), "--prompt", "hello", "--prompt", "world",
            "--budget", "24", "--runs", "2", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["baseline"]["output_tokens_per_s"] > 0
        assert report["variant"]["label"] == "moi"
        assert "Overhead" in proc.stdout


    def test_bench_prints_environment(self, model_file):
        proc = run_cli(
            "bench", "--model", str(model_file), "--prompt", "hi", "--budget", "4", "--runs", "1",
            env_extra={"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "3"},
        )
        assert proc.returncode == 0, proc.stderr
        table, env_line = proc.stdout.rstrip("\n").rsplit("\n", 1)
        assert "Overhead" in table
        assert env_line == (
            f"environment: OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=2, MKL_NUM_THREADS=3, cpu_count={os.cpu_count()}"
        )


class TestUsage:
    def test_no_subcommand_is_usage_error(self):
        assert run_cli().returncode == 2

    def test_unknown_flag_is_usage_error(self, model_file):
        proc = run_cli("generate", "--model", str(model_file), "--prompt", "a", "--bogus")
        assert proc.returncode == 2
