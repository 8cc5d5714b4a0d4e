"""Length-normalize prompt embedding matrices and average them.

Each prompt is an L x d matrix of position embeddings.  To blend a pool
of prompts with different lengths, every matrix is resampled to a common
length by piecewise-linear interpolation along the sequence axis (row k
of an L-row matrix sits at position k/(L-1) on [0, 1]) and the resampled
matrices are averaged elementwise.  Interpolation only: values are never
extended beyond the endpoints.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .jsonio import NUMBER, dump, has_type, load


def _as_matrix(rows: np.ndarray) -> np.ndarray:
    m = np.asarray(rows, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"prompt matrix must be 2-D with L >= 1 rows, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("prompt matrix contains non-finite entries")
    return m


def interpolate_length(matrix: np.ndarray, target_length: int) -> np.ndarray:
    """Resample an L x d matrix to target_length rows along the sequence axis.

    Endpoints map exactly and L == target_length returns the input
    unchanged; a single-row matrix is repeated.  Downsampling uses the
    same piecewise-linear rule.
    """
    m = _as_matrix(matrix)
    if target_length < 1:
        raise ValueError(f"target length must be >= 1, got {target_length}")
    positions = np.linspace(0.0, 1.0, target_length)
    grid = np.linspace(0.0, 1.0, m.shape[0])
    out = np.empty((target_length, m.shape[1]))
    for col in range(m.shape[1]):
        out[:, col] = np.interp(positions, grid, m[:, col])
    return out


def blend_prompts(prompts, target_length: int | None = None) -> np.ndarray:
    """Elementwise mean of the prompts after resampling each to one length.

    `target_length` defaults to the longest prompt in the pool.
    """
    matrices = [_as_matrix(p) for p in prompts]
    if not matrices:
        raise ValueError("prompt pool must be nonempty")
    dims = {m.shape[1] for m in matrices}
    if len(dims) != 1:
        raise ValueError(f"prompts disagree on embedding dim: {sorted(dims)}")
    if target_length is None:
        target_length = max(m.shape[0] for m in matrices)
    stacked = np.stack([interpolate_length(m, target_length) for m in matrices])
    return stacked.mean(axis=0)


class PromptFormatError(ValueError):
    """Raised when a prompt-matrix file breaks the {"dim", "rows"} format."""


def read_prompt_matrix(path: str | Path) -> np.ndarray:
    """Load {"dim": d, "rows": [[...], ...]} JSON into an L x d matrix.

    Types are checked exactly: `dim` is a positive JSON integer and `rows` a
    nonempty list of lists of `dim` JSON numbers, so a float `dim`, a
    numeric string or a boolean raises PromptFormatError, naming the row at
    fault, where int() and float() would load it.  Bytes that are not
    strict JSON (see the jsonio module) raise it too.
    """
    obj = load(Path(path).read_bytes(), PromptFormatError, f"{path}: invalid JSON")
    if type(obj) is not dict or "dim" not in obj or "rows" not in obj:
        raise PromptFormatError(f"{path}: expected an object with keys 'dim' and 'rows'")
    dim, rows = obj["dim"], obj["rows"]
    if type(dim) is not int or dim < 1:
        raise PromptFormatError(f"{path}: 'dim' must be a positive integer, got {dim!r}")
    if type(rows) is not list or not rows:
        raise PromptFormatError(f"{path}: 'rows' must be a nonempty list of rows")
    for i, row in enumerate(rows):
        if not has_type(row, 1, NUMBER) or len(row) != dim:
            raise PromptFormatError(f"{path}: row {i} must be a list of dim={dim} numbers")
    return np.array(rows, dtype=np.float64)


def write_prompt_matrix(matrix: np.ndarray, path: str | Path) -> None:
    m = _as_matrix(matrix)
    with open(path, "wb") as fh:
        fh.write(dump({"dim": m.shape[1], "rows": np.ascontiguousarray(m)}))
