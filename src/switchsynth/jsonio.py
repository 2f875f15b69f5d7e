"""Deterministic JSON emission for report and program documents.

The stdlib encoder prints floats with shortest round-trip repr; documents
here pin floats to 17 significant digits instead, which also round-trips
IEEE doubles exactly and keeps byte-for-byte output stable across runs.
Output is parseable by ``json.loads``.

A complex number is written as its ``[re, im]`` pair, and a complex
``np.ndarray`` on one line as the row-major list of its entries' pairs, by
one ``%`` format over its floats, as ``matrix_text`` (a matrix id's text) is.

A dict, and a list that holds a dict, is written one entry per line, each
entry indented two spaces deeper than its container; any other list is
written on one line. A list inside a one-line list is laid out as at level
0, so one that holds a dict opens a block indented from the left margin.
Tuples are written as lists.
"""

from __future__ import annotations

import math
from _json import encode_basestring_ascii as _quote  # json.encoder's; loads no json

import numpy as np


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value}")
    if value == 0.0:
        return "0"  # canonicalize -0.0 so round trips are byte-stable
    return "%.17g" % value


def measured(value):
    """A report's value in its document: None (``null``; ``nan`` in text) for a
    float that is not finite, as its check measured nothing and fails."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def format_measured(value: float) -> str:
    """A report's float in text: ``nan`` where ``measured`` gives None."""
    return "nan" if measured(value) is None else format_float(value)


def _pairs(m: np.ndarray, pair: str, sep: str) -> str:
    """``pair % (re, im)`` of each entry of ``m``, row-major, joined by ``sep``;
    adding 0.0 turns -0.0 into 0.0, which prints as "0" as in ``format_float``."""
    values = np.ascontiguousarray(m, dtype=complex).reshape(-1).view(float)
    finite = np.isfinite(values)
    if not finite.all():
        format_float(float(values[np.argmin(finite)]))  # raises its ValueError
    return sep.join([pair] * (values.size // 2)) % tuple((values + 0.0).tolist())


def matrix_text(m: np.ndarray) -> str:
    """Row-major ``re,im|re,im|...`` of a matrix in ``format_float`` text."""
    return _pairs(m, "%.17g,%.17g", "|")


def _scalar(obj) -> str:
    """Text of a value that is not a dict, list or tuple."""
    # no class inherits two of str, float and int; bool is an int
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, complex):  # numpy complex128 too
        return f"[{format_float(obj.real)}, {format_float(obj.imag)}]"
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "c":
        return "[" + _pairs(obj, "[%.17g, %.17g]", ", ") + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a document")


def _emit(obj, level: int, pieces: list[str]) -> None:
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"document keys must be strings, got {key!r}")
            pieces.append(f"{pad}{_quote(key)}: ")
            if isinstance(value, (dict, list, tuple)):
                _emit(value, level + 1, pieces)
            else:
                pieces.append(_scalar(value))
            pieces.append(",\n")
        pieces[-1] = "\n"  # no comma after the last entry
        pieces.append(close_pad + "}")
    elif not isinstance(obj, (list, tuple)):
        pieces.append(_scalar(obj))
    elif not obj:
        pieces.append("[]")
    elif any(isinstance(el, dict) for el in obj):
        pieces.append("[\n")
        for el in obj:
            pieces.append(pad)
            _emit(el, level + 1, pieces)
            pieces.append(",\n")
        pieces[-1] = "\n"
        pieces.append(close_pad + "]")
    else:  # joined here, so a nested list leaves one string in its parent's parts
        parts = ["["]
        for el in obj:
            if isinstance(el, (list, tuple)):
                _emit(el, 0, parts)  # a nested list starts over at level 0
            else:
                parts.append(_scalar(el))
            parts.append(", ")
        parts[-1] = "]"
        pieces.append("".join(parts))


def dumps(obj) -> str:
    """Serialize a document; trailing newline included."""
    pieces: list[str] = []
    _emit(obj, 0, pieces)
    return "".join(pieces) + "\n"
