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
from dataclasses import fields
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


def report_document(report) -> dict:
    """A report's document, and ``synth``'s spec's: each field but ``worst_*``
    (a case to replay), less any ``_name`` suffix, via ``measured``; tuples as lists."""
    values = {f.name: getattr(report, f.name) for f in fields(report)
              if not f.name.startswith("worst_")}
    return {name.removesuffix("_name"):
            list(map(measured, value)) if isinstance(value, tuple) else measured(value)
            for name, value in values.items()}


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


_NESTED = (dict, list, tuple)


def _refuse_key(key):
    raise TypeError(f"document keys must be strings, got {key!r}")


def _emit(obj, level: int) -> str:
    """Text of ``obj``; an entry that is not a dict, list or tuple goes
    straight to ``_scalar``, which is much cheaper than a call into ``_emit``."""
    if not isinstance(obj, _NESTED):
        return _scalar(obj)
    pad = "  " * (level + 1)
    if isinstance(obj, dict):
        body = ",\n".join([
            f"{pad}{_quote(key) if isinstance(key, str) else _refuse_key(key)}: "
            + (_emit(value, level + 1) if isinstance(value, _NESTED) else _scalar(value))
            for key, value in obj.items()])
        return f"{{\n{body}\n{pad[2:]}}}" if obj else "{}"
    if any(isinstance(el, dict) for el in obj):  # so not empty
        body = ",\n".join([
            pad + (_emit(el, level + 1) if isinstance(el, _NESTED) else _scalar(el))
            for el in obj])
        return f"[\n{body}\n{pad[2:]}]"
    # one line, where a nested list starts again at level 0
    body = ", ".join([_emit(el, 0) if isinstance(el, _NESTED) else _scalar(el) for el in obj])
    return f"[{body}]"


def dumps(obj) -> str:
    """Serialize a document; trailing newline included."""
    return _emit(obj, 0) + "\n"
