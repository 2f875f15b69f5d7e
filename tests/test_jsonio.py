import json
import math

import numpy as np
import pytest

from switchsynth.jsonio import dumps, format_float

from oracles import matrix_entries


def test_format_float_round_trips_17_digits():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        value = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
        assert float(format_float(value)) == value


def test_format_float_fixed_cases():
    assert format_float(0.5) == "0.5"
    assert format_float(1.0) == "1"
    assert format_float(-2.25) == "-2.25"
    assert format_float(1e-300) == "1e-300"


def test_format_float_canonicalizes_negative_zero():
    assert format_float(0.0) == "0"
    assert format_float(-0.0) == "0"


def test_format_float_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            format_float(bad)


def test_dumps_layout():
    doc = {
        "name": "demo",
        "count": 3,
        "ok": True,
        "values": [1.0, -0.0, 2.5],
        "nested": {"empty_list": [], "none": None},
        "records": [{"a": 1}, {"a": 2}],
    }
    text = dumps(doc)
    assert text.endswith("\n")
    assert '"values": [1, 0, 2.5]' in text          # scalar lists stay inline
    assert '"ok": true' in text                     # bools are not ints
    assert '"a": 1' in text                         # dict lists go multiline
    assert text.index('"name"') < text.index('"count"')  # insertion order kept
    assert json.loads(text) == {
        "name": "demo", "count": 3, "ok": True, "values": [1.0, 0.0, 2.5],
        "nested": {"empty_list": [], "none": None},
        "records": [{"a": 1}, {"a": 2}],
    }


def test_dumps_escapes_strings():
    text = dumps({"key with \"quotes\"": "line\nbreak"})
    assert json.loads(text) == {'key with "quotes"': "line\nbreak"}


def test_dumps_quotes_strings_with_json_encoders_function():
    # jsonio imports the C function from _json, so a start loads no json package
    from json.encoder import encode_basestring_ascii

    from switchsynth import jsonio
    assert jsonio._quote is encode_basestring_ascii


def test_dumps_is_deterministic():
    doc = {"floats": [math.pi, math.e, 1 / 3], "flag": False}
    assert dumps(doc) == dumps(doc)
    assert dumps(json.loads(dumps(doc))) == dumps(doc)


def test_dumps_is_unchanged_on_a_mixed_document():
    doc = {
        "name": "café ☃ \"q\"\n",
        "flags": (True, False, None),
        "ints": [0, -7, 10 ** 20],
        "floats": [0.1, -0.0, 1e-300, -2.5e+17],
        "nested": [[1, [2.5, -0.0]], (3, ()), [], [[[]]]],
        "empty": {},
        "records": [{"a": [1.0, [None]], "b": {}}, {"ü": -0.0}, ()],
        "dict_in_nested_list": [0.5, [{"deep": [1]}, 2]],
        "scalar": -0.0,
    }
    assert dumps(doc) == (
        '{\n'
        '  "name": "caf\\u00e9 \\u2603 \\"q\\"\\n",\n'
        '  "flags": [true, false, null],\n'
        '  "ints": [0, -7, 100000000000000000000],\n'
        '  "floats": [0.10000000000000001, 0, 1e-300, -2.5e+17],\n'
        '  "nested": [[1, [2.5, 0]], [3, []], [], [[[]]]],\n'
        '  "empty": {},\n'
        '  "records": [\n'
        '    {\n'
        '      "a": [1, [null]],\n'
        '      "b": {}\n'
        '    },\n'
        '    {\n'
        '      "\\u00fc": 0\n'
        '    },\n'
        '    []\n'
        '  ],\n'
        # a dict inside an inline list is written in block form at level 0
        '  "dict_in_nested_list": [0.5, [\n'
        '  {\n'
        '    "deep": [1]\n'
        '  },\n'
        '  2\n'
        ']],\n'
        '  "scalar": 0\n'
        '}\n')


@pytest.mark.parametrize("doc,error", [
    ([[1.0, [math.nan]]], ValueError),
    ({"a": [[object()]]}, TypeError),
    ({"a": {1: 2}}, TypeError),
    ([np.int64(1)], TypeError),
], ids=["nested_nan", "nested_object", "int_key", "numpy_int"])
def test_dumps_rejects_unserializable_values(doc, error):
    with pytest.raises(error):
        dumps(doc)


def test_dumps_rejects_a_circular_list():
    inner = [1.0]
    inner.append(inner)
    with pytest.raises(RecursionError):
        dumps({"a": [inner]})


EDGE_VALUES = [-0.0, 5e-324, 1e-300, 1 / 3, 1e300, -1e300, 0.0, -2.5]


def edge_array(shape):
    """A complex array of ``shape`` whose floats cycle through EDGE_VALUES."""
    values = np.resize(np.array(EDGE_VALUES), 2 * math.prod(shape))
    return values.view(complex).reshape(shape)  # arithmetic would lose -0.0


@pytest.mark.parametrize("shape", [(0,), (1,), (3,), (8,), (0, 0), (1, 1),
                                   (2, 2), (3, 3), (4, 4), (5, 5), (8, 8)])
def test_dumps_writes_an_array_as_its_matrix_entries(shape):
    m = edge_array(shape)
    want = dumps({"m": matrix_entries(m), "in_list": [matrix_entries(m), 1]})
    assert dumps({"m": m, "in_list": [m, 1]}) == want
    assert dumps(m) == dumps(matrix_entries(m))
    assert dumps(m.T) == dumps(matrix_entries(m.T))  # not C-contiguous
    assert json.loads(dumps(m)) == matrix_entries(m)


def test_dumps_writes_a_complex_number_as_its_pair():
    for re in EDGE_VALUES:
        for im in EDGE_VALUES:
            for z in (complex(re, im), np.complex128(complex(re, im))):
                assert dumps({"z": z, "zs": [z, (z, z)]}) == \
                    dumps({"z": [re, im], "zs": [[re, im], ([re, im], [re, im])]})


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(1.0, np.inf),
                                 complex(-np.inf, np.nan)])
def test_dumps_rejects_a_non_finite_entry_as_format_float_does(bad):
    first = next(v for v in (bad.real, bad.imag) if not math.isfinite(v))
    with pytest.raises(ValueError) as want:
        format_float(first)
    for obj in (bad, np.array([[1.0, 0.0], [0.0, bad]]), np.array([bad])):
        with pytest.raises(ValueError) as got:
            dumps({"m": obj})
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("array", [np.eye(2), np.zeros(3, dtype=np.float32),
                                   np.arange(4), np.array([True]),
                                   np.array(["a"]), np.array([None])],
                         ids=["float64", "float32", "int", "bool", "str", "object"])
def test_dumps_rejects_an_array_that_is_not_complex(array):
    with pytest.raises(TypeError):
        dumps({"m": array})
