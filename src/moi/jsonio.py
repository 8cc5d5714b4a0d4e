"""The one JSON codec of the package: strict JSON through orjson.

`load` accepts RFC 8259 JSON in UTF-8 only: `NaN`, `Infinity`, a number
beyond the float range (`1e400`, a 400-digit integer), a byte-order mark,
bytes that are not UTF-8 and a lone surrogate escape raise the loader's
own error.  orjson reads an integer beyond 64 bits as a float, which
`has_type` refuses where an integer is due.  `dump` is the one writer:
compact JSON with shortest round-trip floats, numpy arrays included.
"""

from __future__ import annotations

import orjson

INT = frozenset({int})
NUMBER = frozenset({int, float})
STR = frozenset({str})


def load(raw: bytes, error_cls: type[ValueError], where: str):
    """The JSON value of `raw`; `error_cls` with the message "where: reason"
    if `raw` is not strict JSON.  `where` names the file or line."""
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError as exc:
        raise error_cls(f"{where}: {exc}") from exc


def dump(value) -> bytes:
    """`value` as one compact JSON line, newline included.  A numpy array
    must be C-contiguous; orjson writes NaN and inf as null, so a writer
    whose values may be non-finite checks them first."""
    return orjson.dumps(value, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)


def has_type(value, depth: int, types: frozenset) -> bool:
    """Whether `value` is a `depth`-deep nest of lists of items whose exact
    type is in `types`: no coercion of 2.9 or "3", and bool is not int."""
    if depth == 0:
        return type(value) in types
    if depth == 1:  # one C-level scan: read_trace runs it on every line's arrays
        return type(value) is list and types.issuperset(map(type, value))
    return type(value) is list and all(has_type(v, depth - 1, types) for v in value)
