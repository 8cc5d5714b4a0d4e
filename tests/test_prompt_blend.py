"""Piecewise-linear prompt resampling and pool averaging."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moi.prompt_blend import (
    PromptFormatError,
    blend_prompts,
    interpolate_length,
    read_prompt_matrix,
    write_prompt_matrix,
)


def mat(*rows) -> np.ndarray:
    return np.asarray(rows, dtype=np.float64)


class TestInterpolateLength:
    def test_identity_when_lengths_match(self):
        m = mat([1.0, 2.0], [3.0, 4.0], [5.0, 6.0])
        np.testing.assert_array_equal(interpolate_length(m, 3), m)

    def test_two_to_three_inserts_midpoint(self):
        a, b = [0.0, 2.0], [4.0, -2.0]
        out = interpolate_length(mat(a, b), 3)
        np.testing.assert_allclose(out, [a, [2.0, 0.0], b], atol=1e-15)

    def test_three_to_five(self):
        a, b, c = [0.0, 0.0], [2.0, 4.0], [6.0, -4.0]
        out = interpolate_length(mat(a, b, c), 5)
        expected = [a, [1.0, 2.0], b, [4.0, 0.0], c]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_single_row_repeats(self):
        out = interpolate_length(mat([7.0, -1.0]), 4)
        np.testing.assert_array_equal(out, np.tile([7.0, -1.0], (4, 1)))

    def test_downsampling(self):
        m = mat([0.0], [1.0], [2.0], [3.0], [4.0])
        out = interpolate_length(m, 3)
        np.testing.assert_allclose(out, [[0.0], [2.0], [4.0]], atol=1e-12)

    def test_target_one_takes_first_row(self):
        m = mat([1.0, 1.0], [9.0, 9.0])
        np.testing.assert_array_equal(interpolate_length(m, 1), [[1.0, 1.0]])

    def test_endpoints_exact(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for _ in range(30):
            rows = int(rng.integers(2, 9))
            target = int(rng.integers(2, 15))
            m = rng.normal(size=(rows, 3))
            out = interpolate_length(m, target)
            np.testing.assert_array_equal(out[0], m[0])
            np.testing.assert_array_equal(out[-1], m[-1])

    def test_rows_stay_on_adjacent_segments(self):
        rng = np.random.Generator(np.random.PCG64(1))
        m = rng.normal(size=(4, 2))
        target = 11
        out = interpolate_length(m, target)
        x_old = np.linspace(0.0, 1.0, 4)
        x_new = np.linspace(0.0, 1.0, target)
        for j, x in enumerate(x_new):
            k = min(int(np.searchsorted(x_old, x, side="right")) - 1, 2)
            lo = np.minimum(m[k], m[k + 1]) - 1e-12
            hi = np.maximum(m[k], m[k + 1]) + 1e-12
            assert np.all(out[j] >= lo) and np.all(out[j] <= hi)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            interpolate_length(mat([1.0]), 0)

    @pytest.mark.parametrize(
        "matrix, match",
        [
            (np.array([1.0, 2.0]), "must be 2-D"),
            (np.zeros((2, 2, 2)), "must be 2-D"),
            (np.zeros((0, 3)), "must be 2-D"),
            (mat([1.0, np.nan]), "non-finite"),
            (mat([1.0, 2.0], [-np.inf, 0.0]), "non-finite"),
        ],
        ids=["1-d", "3-d", "no-rows", "nan", "infinity"],
    )
    def test_bad_matrix_rejected(self, matrix, match):
        with pytest.raises(ValueError, match=match):
            interpolate_length(matrix, 2)

    def test_equal_single_and_one_row_lengths_are_exact_bytes(self):
        # np.interp returns a row itself where a position falls on one, so the
        # three cases need no branch of their own; -0.0 and huge entries stay
        m = mat([-0.0, 1.7e308, 2.5], [-1.7e308, 0.0, -3.25], [5e-324, -0.0, 1.0])
        assert interpolate_length(m, 3).tobytes() == m.tobytes()
        assert interpolate_length(m, 1).tobytes() == m[:1].tobytes()
        assert interpolate_length(m[2:], 4).tobytes() == np.repeat(m[2:], 4, axis=0).tobytes()

    @settings(deadline=None, max_examples=40)
    @given(
        rows=st.integers(1, 8),
        target=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_output_shape_and_bounds(self, rows, target, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        m = rng.normal(size=(rows, 2))
        out = interpolate_length(m, target)
        assert out.shape == (target, 2)
        assert np.all(out >= m.min(axis=0) - 1e-12)
        assert np.all(out <= m.max(axis=0) + 1e-12)


class TestBlendPrompts:
    def test_single_prompt_is_its_interpolation(self):
        m = mat([1.0, 0.0], [0.0, 1.0])
        np.testing.assert_array_equal(blend_prompts([m]), m)

    def test_identical_prompts_blend_to_themselves(self):
        m = mat([1.0, 2.0], [3.0, 4.0])
        np.testing.assert_allclose(blend_prompts([m, m, m]), m, atol=1e-15)

    def test_equal_length_pool_is_elementwise_mean(self):
        a = mat([0.0, 0.0], [2.0, 2.0])
        b = mat([4.0, 0.0], [0.0, 6.0])
        np.testing.assert_allclose(blend_prompts([a, b]), (a + b) / 2, atol=1e-15)

    def test_default_target_is_longest(self):
        a = mat([1.0], [3.0], [5.0])
        b = mat([0.0])
        out = blend_prompts([a, b])
        assert out.shape == (3, 1)

    def test_permutation_invariant(self):
        rng = np.random.Generator(np.random.PCG64(9))
        pool = [rng.normal(size=(int(rng.integers(1, 6)), 3)) for _ in range(5)]
        base = blend_prompts(pool)
        perm = [pool[i] for i in rng.permutation(len(pool))]
        np.testing.assert_allclose(blend_prompts(perm), base, atol=1e-6)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            blend_prompts([])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            blend_prompts([mat([1.0, 2.0]), mat([1.0])])


class TestPromptMatrixIO:
    def test_round_trip(self, tmp_path):
        m = mat([1.5, -2.25], [0.125, 9.0])
        path = tmp_path / "p.json"
        write_prompt_matrix(m, path)
        np.testing.assert_array_equal(read_prompt_matrix(path), m)

    def test_dim_cross_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 3, "rows": [[1.0, 2.0]]}')
        with pytest.raises(ValueError, match="dim"):
            read_prompt_matrix(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": [[1.0]]}')
        with pytest.raises(ValueError):
            read_prompt_matrix(path)

    # each of these loaded, coerced, or failed with numpy's raw message
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"dim": 2.7, "rows": [[1.0, 2.0]]}', "'dim' must be a positive integer, got 2.7"),
            ('{"dim": "2", "rows": [[1.0, 2.0]]}', "'dim' must be a positive integer, got '2'"),
            ('{"dim": true, "rows": [[1.0]]}', "'dim' must be a positive integer, got True"),
            ('{"dim": 2, "rows": [["1.5", "2"]]}', "row 0 must be a list of dim=2 numbers"),
            ('{"dim": 2, "rows": [[true, false]]}', "row 0 must be a list of dim=2 numbers"),
            ('{"dim": 2, "rows": [[1.0, 2.0], [3.0]]}', "row 1 must be a list of dim=2 numbers"),
            ('[{"dim": 1, "rows": [[1.0]]}]', "expected an object with keys 'dim' and 'rows'"),
            ('{"dim": 1, "rows": [[NaN]]}', "invalid JSON: unexpected character"),
            ('{"dim": 1, "rows": [[0.0], [1e400]]}', "invalid JSON: number is infinity"),
            ('{"dim": 1, "rows": [[1%s]]}' % ("0" * 400), "invalid JSON: number is infinity"),
            ('{"dim": 1, "rows": []}', "'rows' must be a nonempty list"),
        ],
        ids=["float-dim", "string-dim", "bool-dim", "string-entries", "bool-entries", "ragged", "top-level-list",
             "nan", "float-overflow", "int-overflow", "no-rows"],
    )
    def test_wrong_type_is_format_error(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(PromptFormatError, match=message):
            read_prompt_matrix(path)

    def test_int_entries_load_as_floats(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"dim": 2, "rows": [[1, -2], [0.5, 3]]}')
        assert read_prompt_matrix(path).tolist() == [[1.0, -2.0], [0.5, 3.0]]


VALID_MATRIX = {"dim": 2, "rows": [[1.5, -2.25], [0.125, 9.0], [0.0, 4]]}
PROMPT_FUZZ_VALUES = (None, True, False, 0, -1, 2, 3, 2**70, 10**400, 1.5, float("nan"), float("inf"), "2", "moi",
                      [], [1], [[0.5]], [True], {"a": 1})


@st.composite
def mutated_prompt_file(draw):
    """A valid prompt-matrix file after one to three mutations: a key
    dropped, a value, a row or a row entry swapped for another JSON value,
    a value nested in a list, or the bytes truncated."""
    obj = copy.deepcopy(VALID_MATRIX)
    values = st.sampled_from(PROMPT_FUZZ_VALUES).map(copy.deepcopy)
    for _ in range(draw(st.integers(1, 3))):
        if not obj:
            break
        key = draw(st.sampled_from(sorted(obj)))
        kind = draw(st.sampled_from(("drop", "swap", "swap_row", "swap_entry", "nest")))
        rows = obj[key] if key == "rows" and isinstance(obj[key], list) and obj[key] else None
        if kind == "drop":
            del obj[key]
        elif kind == "swap_row" and rows is not None:
            rows[draw(st.integers(0, len(rows) - 1))] = draw(values)
        elif kind == "swap_entry" and rows is not None:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if isinstance(row, list) and row:
                row[draw(st.integers(0, len(row) - 1))] = draw(values)
        elif kind == "nest":
            obj[key] = [obj[key]]
        else:
            obj[key] = draw(values)
    data = json.dumps(obj).encode()
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return data


class TestPromptMatrixFuzz:
    @settings(deadline=None, max_examples=300)
    @given(data=mutated_prompt_file())
    def test_mutated_file_is_format_error_or_exact(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_bytes(data)
        try:
            m = read_prompt_matrix(path)
        except PromptFormatError:
            return
        # no silent load: what loads is exactly what the file says
        obj = json.loads(data)
        assert type(obj["dim"]) is int and m.shape == (len(obj["rows"]), obj["dim"])
        assert all(type(x) in (int, float) for row in obj["rows"] for x in row)
        assert m.tolist() == [[float(x) for x in row] for row in obj["rows"]]
