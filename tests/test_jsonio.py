"""The strict JSON codec: one policy for all four loaders, one writer, and no second parser."""

import ast
import json
from pathlib import Path

import orjson
import pytest

from moi import cli, jsonio
from moi.pipeline import TraceFormatError, read_trace
from moi.prompt_blend import PromptFormatError, read_prompt_matrix
from moi.toy_lm import ModelConfig, WeightFormatError, init_random, load_weights, save_weights

HOLE = b'"@@"'
# values that are not strict JSON; without parse hooks the stdlib parser
# reads the first five (1e400 as inf) and the lone surrogate as a str
BAD_VALUES = {
    "nan": b"NaN",
    "infinity": b"Infinity",
    "minus-infinity": b"-Infinity",
    "float-overflow": b"1e400",
    "int-overflow": b"1" + b"0" * 400,
    "not-utf8": b'"\xff"',
    "lone-surrogate": b'"\\ud800"',
}
BOM = b"\xef\xbb\xbf"


def holed(obj, *path) -> bytes:
    """The JSON bytes of `obj` with HOLE at the key `path` leads to."""
    obj = json.loads(json.dumps(obj))
    block = obj
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = "@@"
    return json.dumps(obj).encode()


@pytest.fixture(scope="module")
def loaders(tmp_path_factory):
    """Each loader's error class, reader, and two templates of a valid file:
    HOLE where the loader reads a value, and under a key it does not read."""
    path = tmp_path_factory.mktemp("jsonio") / "m.tlm"
    save_weights(init_random(ModelConfig(vocab=4, dim=4, heads=1, layers=1, context=4, init_seed=3)), path)
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    grid = {"task": {"model": "m.tlm", "prompts": ["ab"]}, "temperatures": [0.5]}
    matrix = {"dim": 1, "rows": [[0.5]]}
    record = {"step": 0, "token": 3, "H": 0.0, "support": [3], "probs": [1.0], "weights": [1.0], "mode": "standard"}
    return {
        "grid": (cli.ConfigError, cli._load_grid_config, holed(grid, "temperatures", 0), holed(grid, "note")),
        "prompt": (PromptFormatError, read_prompt_matrix, holed(matrix, "rows", 0, 0), holed(matrix, "note")),
        "weights": (
            WeightFormatError,
            load_weights,
            holed(header, "config", "vocab") + b"\n" + payload,
            holed(header, "note") + b"\n" + payload,
        ),
        "trace": (TraceFormatError, read_trace, holed(record, "H") + b"\n", holed(record, "note") + b"\n"),
    }


class TestBadBytesCorpus:
    @pytest.mark.parametrize("unread", [False, True], ids=["read-key", "unread-key"])
    @pytest.mark.parametrize("case", [*BAD_VALUES, "bom"])
    @pytest.mark.parametrize("loader", ["grid", "prompt", "weights", "trace"])
    def test_refused_at_parse_with_the_loaders_error(self, loaders, tmp_path, loader, case, unread):
        error_cls, read, *templates = loaders[loader]
        template = templates[unread]
        data = BOM + template.replace(HOLE, b"1") if case == "bom" else template.replace(HOLE, BAD_VALUES[case])
        path = tmp_path / "file"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            read(path)
        assert type(info.value) is error_cls
        # refused by the parser, not by a later check that happened to see the value
        assert isinstance(info.value.__cause__, orjson.JSONDecodeError)

    @pytest.mark.parametrize("loader", ["prompt", "weights", "trace"])
    def test_a_json_value_under_an_unread_key_loads(self, loaders, tmp_path, loader):
        # the grid config is left out: it refuses every key it does not read
        _, read, _, template = loaders[loader]
        path = tmp_path / "file"
        path.write_bytes(template.replace(HOLE, b"[1, 2.5]"))
        read(path)

    @pytest.mark.parametrize("field, text", [
        ("budget", '{"task": {"model": "m.tlm", "prompts": ["ab"], "budget": 18446744073709551616}}'),
        ("seeds", '{"task": {"model": "m.tlm", "prompts": ["ab"]}, "seeds": [18446744073709551616]}'),
    ], ids=["budget", "seeds"])
    def test_integer_beyond_64_bits_names_the_field(self, tmp_path, field, text):
        # orjson reads it as a float, which the exact type check refuses
        path = tmp_path / "grid.json"
        path.write_text(text)
        with pytest.raises(cli.ConfigError, match=f"field {field!r} must be"):
            cli._load_grid_config(path)


class TestReader:
    def test_load_raises_the_given_class_naming_where(self):
        class Custom(ValueError):
            pass

        assert jsonio.load(b'{"a": [1, 2.5, "x"]}', Custom, "f.json") == {"a": [1, 2.5, "x"]}
        with pytest.raises(Custom, match=r"^f\.json: unexpected end of data"):
            jsonio.load(b'{"a": [1', Custom, "f.json")

    def test_has_type_compares_exact_types(self):
        assert jsonio.has_type(3, 0, jsonio.INT)
        assert not jsonio.has_type(True, 0, jsonio.INT) and not jsonio.has_type(3.0, 0, jsonio.INT)
        assert jsonio.has_type([1, 2.5], 1, jsonio.NUMBER) and jsonio.has_type([], 1, jsonio.INT)
        assert not jsonio.has_type([1, "2"], 1, jsonio.NUMBER) and not jsonio.has_type([False], 1, jsonio.NUMBER)
        assert not jsonio.has_type({}, 1, jsonio.INT) and not jsonio.has_type("ab", 1, jsonio.STR)
        assert jsonio.has_type([[1], []], 2, jsonio.INT)
        assert not jsonio.has_type([1, [2]], 2, jsonio.INT) and not jsonio.has_type([[True]], 2, jsonio.INT)


# (module, function) pairs that parse JSON text
PARSERS = {("json", "load"), ("json", "loads"), ("orjson", "loads")}


def test_no_module_but_jsonio_parses_json():
    offenders = []
    for path in sorted(Path(jsonio.__file__).parent.glob("*.py")):
        if path.name == "jsonio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called = (getattr(node.func.value, "id", None), node.func.attr)
                if called in PARSERS:
                    offenders.append(f"{path.name}:{node.lineno} calls {'.'.join(called)}")
            elif isinstance(node, ast.ImportFrom) and any((node.module, a.name) in PARSERS for a in node.names):
                offenders.append(f"{path.name}:{node.lineno} imports a parser from {node.module}")
    assert offenders == []


def test_no_module_but_jsonio_imports_a_json_codec():
    # one codec reads and writes, so a float has one written form
    offenders = []
    for path in sorted(Path(jsonio.__file__).parent.glob("*.py")):
        if path.name == "jsonio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in ("json", "orjson") for m in modules):
                offenders.append(f"{path.name}:{node.lineno} imports {', '.join(modules)}")
    assert offenders == []
