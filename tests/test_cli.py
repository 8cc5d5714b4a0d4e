"""End-to-end CLI contract: exit codes, determinism, artifacts."""

import copy
import csv
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_infinite_beta_is_runtime_error(self, model_file):
        proc = run_cli("generate", "--model", str(model_file), "--prompt", "ab", "--beta", "inf")
        assert proc.returncode == 1
        assert "beta" in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("env", ["1_0", " 7 ", "+3", "٣", "7\n", "1.0", "", "seven"])
    def test_moi_seed_in_another_form_is_runtime_error(self, model_file, env):
        # int() read 1_0 as 10, " 7 " as 7 and +3 and the Arabic-Indic digit three as 3
        proc = run_cli("generate", "--model", str(model_file), "--prompt", "ab", "--max-tokens", "2",
                       env_extra={"MOI_SEED": env})
        assert proc.returncode == 1
        assert "MOI_SEED" in proc.stderr and proc.stdout == ""

    def test_moi_seed_digits_read_as_written(self, monkeypatch):
        for env, seed in (("-12", -12), ("0042", 42), ("18446744073709551616", 2**64)):
            monkeypatch.setenv("MOI_SEED", env)
            assert cli._seed_from_env(3) == seed
        monkeypatch.delenv("MOI_SEED")
        assert cli._seed_from_env(3) == 3

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


class TestNegativeSeed:
    # each exited 1 with PCG64's "expected non-negative integer", naming no seed
    @pytest.mark.parametrize(
        "command, seed_args, env, name",
        [("generate", ["--seed", "-1"], None, "seed"), ("generate", [], "-1", "seed"),
         ("init-model", ["--seed", "-2"], None, "init_seed")],
        ids=["generate", "moi-seed-env", "init-model"],
    )
    def test_names_the_seed(self, model_file, tmp_path, capsys, monkeypatch, command, seed_args, env, name):
        out = tmp_path / "out"
        argv = {
            "generate": ["generate", "--model", str(model_file), "--prompt", "ab", "--max-tokens", "2"],
            "init-model": ["init-model", "--out", str(out)],
        }[command]
        if env is not None:
            monkeypatch.setenv("MOI_SEED", env)
        assert cli.main(argv + seed_args) == 1
        captured = capsys.readouterr()
        assert f"error: {name} must be a non-negative integer, got -" in captured.err
        assert captured.out == "" and not out.exists()


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
        assert out.read_text().startswith("mode,beta,top_p,temperature,seed,score\n")

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
        assert out.read_text() == "mode,beta,top_p,temperature,seed,score\nmoi,1.0,0.9,0.7,0,error\n"

    def test_strict_exits_1_on_failed_trial(self, model_file, tmp_path, capsys):
        config = {
            "betas": [1.0], "top_ps": [0.9], "temperatures": [0.7], "modes": ["moi"], "seeds": [0],
            "task": {"kind": "greedy_recovery", "model": str(model_file), "prompts": ["ab"], "budget": 255},
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "results.csv"
        assert cli.main(["grid", "--config", str(cfg_path), "--out", str(out), "--strict"]) == 1
        assert "1 failed trials" in capsys.readouterr().out
        assert out.read_text() == "mode,beta,top_p,temperature,seed,score\nmoi,1.0,0.9,0.7,0,error\n"

    def test_zero_jobs_exits_1(self, model_file, tmp_path, capsys):
        config = {"seeds": [0], "task": {"model": str(model_file), "prompts": ["ab"], "budget": 2}}
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "r.csv"
        assert cli.main(["grid", "--config", str(cfg_path), "--out", str(out), "--jobs", "0"]) == 1
        assert "error: jobs must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "r.csv.partial").exists()

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
        [("stop_tokens", "ab"), ("budget", 2.9), ("prompt_ids", [[1, 2.7, True]]), ("betas", 1),
         ("model", 5), ("model", ["x"]), ("kind", 5)],
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
        # orjson's reason for each literal
        for literal, reason in (("NaN", "unexpected character"), ("Infinity", "unexpected character"),
                                ("-Infinity", "no digit after minus sign")):
            cfg_path.write_text('{"task": {"model": "model.tlm", "prompts": ["ab"]}, "temperatures": [%s]}' % literal)
            assert cli.main(["grid", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 1
            assert f"error: {cfg_path}: not a JSON grid config: {reason}" in capsys.readouterr().err

    def test_each_field_type_checked_exactly(self):
        bad = {
            "budget": True, "stop_tokens": [1.0], "seeds": [False], "prompt_ids": [1, 2], "prompts": "ab",
            "modes": [["moi"]], "betas": ["1"], "top_ps": [None], "temperatures": [0.6, [1.0]],
            "model": 5, "kind": 5,
        }
        assert set(bad) == set(cli._GRID_FIELDS)
        for field, value in bad.items():
            with pytest.raises(cli.ConfigError, match=repr(field)):
                cli._check_grid_fields({field: value})

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"task": {"prompts": ["ab"]}}', "needs a 'model' field"),  # once a raw KeyError
            ('{"task": {"model": "m.tlm", "prompts": ["ab"], "kind": "bogus"}}', "unknown task kind 'bogus'"),
            ('{"task": {"model": "m.tlm", "prompts": ["ab"], "kind": "external_scorer"}}', "Python API"),
            ('{"task": {"model": "m.tlm", "prompts": []}}', "prompt set must be nonempty"),
            ('{"task": {"model": "m.tlm", "prompts": ["ab"]}, "betas": []}', "betas must be nonempty"),
            ('{"task": {"model": "m.tlm", "prompts": ["ab"]}, "betas": [1e400]}', "JSON grid config: number is infinity"),
            ('{"task": {"model": "m.tlm", "prompts": ["\\ud800"]}}', "surrogate"),
            ('{"task": {"model": "m.tlm", "prompts": ["ab"]}', "not a JSON grid config"),
            ('{"task": {"model": "m.tlm", "prompts": ["\xff"]}}', "not a JSON grid config"),
            # once loaded silently with the default temperatures (72 configs, not 24)
            ('{"task": {"model": "m.tlm", "prompts": ["ab"]}, "temperature": [0.7]}', "unknown field.*'temperature'"),
            ('{"task": {"model": "m.tlm", "prompts": ["ab"], "budgets": 3}}', "unknown field.*'budgets'"),
            ('{"task": {"model": "m.tlm", "prompts": ["ab"]}, "budget": 3}', "unknown field.*'budget'"),
            # once loaded, then failed in run_grid with PCG64's unnamed error
            ('{"task": {"model": "m.tlm", "prompts": ["ab"]}, "seeds": [0, -1]}', "seeds must be a non-negative"),
        ],
        ids=["no-model", "unknown-kind", "external-scorer", "no-prompts", "no-betas", "float-overflow",
             "lone-surrogate", "truncated", "not-utf8", "unknown-key", "unknown-task-key", "task-key-at-top",
             "negative-seed"],
    )
    def test_bad_config_is_config_error(self, tmp_path, text, message):
        path = tmp_path / "grid.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(cli.ConfigError, match=message):
            cli._load_grid_config(path)

    def test_valid_task_loads_unchanged(self):
        spec = cli._task_from_json({"model": "m.tlm", "prompt_ids": [[1, 2]], "budget": 3, "stop_tokens": [7]})
        assert (spec.prompts, spec.budget, spec.stop_tokens) == (((1, 2),), 3, frozenset({7}))
        assert cli._task_from_json({"model": "m.tlm", "prompts": ["ab"]}).prompts == ((97, 98),)


VALID_GRIDS = (
    {"betas": [0.5, 2], "top_ps": [0.9], "temperatures": [0.7, 1.0], "modes": ["moi", "standard"], "seeds": [0, 3],
     "task": {"kind": "greedy_recovery", "model": "m.tlm", "prompts": ["ab", "c"], "budget": 4, "stop_tokens": [7]}},
    {"task": {"model": "m.tlm", "prompt_ids": [[1, 2], [3]], "budget": 2}},
)
GRID_KEYS = {"task", "betas", "top_ps", "temperatures", "modes", "seeds"}
TASK_KEYS = {"model", "kind", "prompts", "prompt_ids", "budget", "stop_tokens"}
# typos, and keys of the other level
STRAY_KEYS = ("temperature", "beta", "top_p", "seed", "mode", "prompt", "budgets", "x", "task", "betas", "model")
GRID_FUZZ_VALUES = (None, True, False, 0, -1, 2, 2**70, 1.5, float("nan"), float("inf"), "", "ab", "moi",
                    "external_scorer", "greedy_recovery", [], [1], [[0.5]], [True], ["x"], [[1, 2]], {"a": 1})


def exact(value, depth: int, *types) -> bool:
    """`value` is a `depth`-deep list of items of exactly `types`."""
    if depth == 0:
        return type(value) in types
    return type(value) is list and all(exact(v, depth - 1, *types) for v in value)


@st.composite
def mutated_grid_config(draw):
    """A valid grid config after one to three mutations, at the top level
    or in the task: a key dropped, a value or a list item swapped for
    another JSON value, a value nested in a list, or a stray key added;
    then, half the time, the bytes truncated or spliced with random bytes."""
    obj = copy.deepcopy(draw(st.sampled_from(VALID_GRIDS)))
    values = st.sampled_from(GRID_FUZZ_VALUES).map(copy.deepcopy)
    for _ in range(draw(st.integers(1, 3))):
        task = obj.get("task")
        block = task if isinstance(task, dict) and task and draw(st.booleans()) else obj
        if not block:
            break
        key = draw(st.sampled_from(sorted(block)))
        kind = draw(st.sampled_from(("drop", "swap", "swap_item", "nest", "stray")))
        if kind == "stray":
            block[draw(st.sampled_from(STRAY_KEYS))] = draw(values)
        elif kind == "drop":
            del block[key]
        elif kind == "swap_item" and isinstance(block[key], list) and block[key]:
            block[key][draw(st.integers(0, len(block[key]) - 1))] = draw(values)
        elif kind == "nest":
            block[key] = [block[key]]
        else:
            block[key] = draw(values)
    data = json.dumps(obj).encode()
    cut = draw(st.sampled_from(("none", "none", "truncate", "splice")))
    if cut == "truncate":
        data = data[: draw(st.integers(0, len(data)))]
    elif cut == "splice":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return data


class TestGridConfigFuzz:
    @settings(deadline=None, max_examples=400)
    @given(data=mutated_grid_config())
    def test_mutated_config_is_config_error_or_exact(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz-grid.json"
        path.write_bytes(data)
        try:
            spec = cli._load_grid_config(path)
        except cli.ConfigError:
            return
        # no silent load: what loads is exactly what the file says
        obj = json.loads(data)
        task = obj["task"]
        assert set(obj) <= GRID_KEYS and set(task) <= TASK_KEYS
        assert exact(task["model"], 0, str) and spec.task.model == task["model"]
        assert spec.task.kind == task.get("kind", "greedy_recovery") == "greedy_recovery"
        assert exact(task.get("budget", 16), 0, int) and spec.task.budget == task.get("budget", 16)
        assert exact(task.get("stop_tokens", []), 1, int)
        assert spec.task.stop_tokens == frozenset(task.get("stop_tokens", []))
        if "prompt_ids" in task:
            assert exact(task["prompt_ids"], 2, int)
            assert spec.task.prompts == tuple(map(tuple, task["prompt_ids"]))
        else:
            assert exact(task["prompts"], 1, str)
            assert spec.task.prompts == tuple(tuple(p.encode()) for p in task["prompts"])
        for name, types in (("betas", (int, float)), ("top_ps", (int, float)), ("temperatures", (int, float)),
                            ("modes", (str,)), ("seeds", (int,))):
            if name in obj:
                assert exact(obj[name], 1, *types) and getattr(spec, name) == tuple(obj[name])
        assert all(math.isfinite(x) for x in spec.betas + spec.top_ps + spec.temperatures)


class TestBestOfN:
    def test_exact_toy_table(self, tmp_path):
        results = tmp_path / "r.csv"
        results.write_text(
            "mode,beta,top_p,temperature,seed,score\n"
            "moi,1.0,0.95,0.6,0,0.2\n"
            "moi,2.0,0.95,0.6,0,0.5\n"
            "moi,3.0,0.95,0.6,0,0.8\n"
        )
        out = tmp_path / "curve.csv"
        proc = run_cli(
            "bestofn", "--results", str(results), "--param", "beta",
            "--max-n", "3", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(out.open()))
        assert float(rows[0]["expected_gain"]) == 0.0
        assert float(rows[2]["expected_gain"]) == pytest.approx(0.3, abs=1e-12)

    def test_replicates_flag_is_usage_error(self, tmp_path):
        # the curve is exact: there is no sample count or seed to set
        results = tmp_path / "r.csv"
        results.write_text("mode,beta,top_p,temperature,seed,score\nmoi,1.0,0.95,0.6,0,0.2\n")
        out = tmp_path / "curve.csv"
        proc = run_cli(
            "bestofn", "--results", str(results), "--param", "beta",
            "--max-n", "1", "--replicates", "0", "--out", str(out),
        )
        assert proc.returncode == 2
        assert "--replicates" in proc.stderr and not out.exists()


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


    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_bench_without_runs_fails_and_writes_nothing(self, model_file, tmp_path, capsys, runs):
        out = tmp_path / "bench.json"
        argv = ["bench", "--model", str(model_file), "--prompt", "hi", "--budget", "4", "--runs", runs, "--out", str(out)]
        assert cli.main(argv) == 1
        assert f"runs must be >= 1, got {runs}" in capsys.readouterr().err
        assert not out.exists()


class TestImports:
    def test_cli_import_leaves_the_process_pool_unloaded(self):
        # only a parallel grid needs multiprocessing; a child interpreter
        # sees what `import moi.cli` alone loads
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = (
            "import sys, moi.cli, moi.experiments\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestUsage:
    def test_no_subcommand_is_usage_error(self):
        assert run_cli().returncode == 2

    def test_unknown_flag_is_usage_error(self, model_file):
        proc = run_cli("generate", "--model", str(model_file), "--prompt", "a", "--bogus")
        assert proc.returncode == 2
