"""Deterministic JSON emission for report and program documents.

The stdlib encoder prints floats with shortest round-trip repr; documents
here pin floats to 17 significant digits instead, which also round-trips
IEEE doubles exactly and keeps byte-for-byte output stable across runs.
Output is parseable by ``json.loads``.

Dicts, and lists that hold a dict, are written one entry per line; any
other list is written on one line. A ``RawJSON`` value is written as is.
"""

from __future__ import annotations

import math
import sys
from json.encoder import encode_basestring_ascii as _quote  # json.dumps(str)


class RawJSON(str):
    """Text already in document form, which ``dumps`` writes as is.

    As simplejson's ``RawJSON``: the writer trusts the text, so only code
    that rendered it with this module's rules should make one.
    """


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value}")
    if value == 0.0:
        return "0"  # canonicalize -0.0 so round trips are byte-stable
    return "%.17g" % value


def _scalar(obj) -> str:
    """Text of a value that is not a dict, list or tuple."""
    # no class inherits two of str, float and int; bool is an int
    if isinstance(obj, str):
        return obj if type(obj) is RawJSON else _quote(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a document")


def _inline(items) -> str:
    """One-line text of a list or tuple with no dict among its items.

    Nested lists are walked with a stack of iterators, not by recursion. A
    nested list that does hold a dict is written in block form at level 0.
    """
    out = ["["]
    # per open list: its items' iterator, the list, where its text starts
    stack = [(iter(items), items, 0)]
    depth_limit = sys.getrecursionlimit()  # as deep as recursion would go
    first = True
    while stack:
        for el in stack[-1][0]:
            if not first:
                out.append(", ")
            first = False
            if type(el) is float:  # most items: matrix entries
                out.append(format_float(el))
            elif isinstance(el, (list, tuple)):
                if len(stack) >= depth_limit:  # also ends a circular list
                    raise RecursionError("document nested too deeply")
                stack.append((iter(el), el, len(out)))
                out.append("[")
                first = True
                break
            elif isinstance(el, dict):
                # only a nested list reaches here: redo it in block form
                _, nested, start = stack.pop()
                del out[start:]
                _emit(nested, 0, out)
                break
            else:
                out.append(_scalar(el))
        else:
            stack.pop()
            out.append("]")
            first = False
    return "".join(out)


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
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            pieces.append("[]")
        elif any(isinstance(el, dict) for el in items):
            pieces.append("[\n")
            for el in items:
                pieces.append(pad)
                _emit(el, level + 1, pieces)
                pieces.append(",\n")
            pieces[-1] = "\n"
            pieces.append(close_pad + "]")
        else:
            pieces.append(_inline(items))
    else:
        pieces.append(_scalar(obj))


def dumps(obj) -> str:
    """Serialize a document; trailing newline included."""
    pieces: list[str] = []
    _emit(obj, 0, pieces)
    return "".join(pieces) + "\n"
