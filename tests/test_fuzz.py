"""Property-based fuzzing of the two outside-input parsers.

Each parser either returns or raises its own error type; any other exception
would reach the CLI as a traceback.
"""

import json

from hypothesis import given, settings, strategies as st

from switchsynth.circuits import GATES, CircuitParseError, parse_circuit
from switchsynth.lowering import lower
from switchsynth.programs import ProgramError, parse_program, serialize_program

FUZZ = settings(derandomize=True, deadline=None, max_examples=400)

PROGRAM_DOC = json.loads(serialize_program(lower(parse_circuit(
    "qubits 2\nh 0\ncnot 0 1\nrz 1 theta=0.4\n"
    "cu 1 0 alpha=0.3 theta=1.1 nx=0 ny=0.6 nz=0.8\n"))))

# every top-level field, every matrix and every instruction record field
FIELD_PATHS = [
    *((key,) for key in PROGRAM_DOC),
    *(("matrices", key) for key in PROGRAM_DOC["matrices"]),
    *(("instructions", index, key)
      for index, record in enumerate(PROGRAM_DOC["instructions"])
      for key in record),
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=8)


@FUZZ
@given(path=st.sampled_from(FIELD_PATHS), value=JSON_VALUES)
def test_parse_program_returns_or_raises_program_error(path, value):
    doc = json.loads(json.dumps(PROGRAM_DOC))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        parse_program(json.dumps(doc))
    except ProgramError:
        pass


TOKENS = st.sampled_from([
    *GATES, "qubits", "0", "1", "2", "3", "007", "-1", "20", "21", "1.5",
    "theta=0.5", "theta=-1e999", "theta=nan", "theta=", "alpha=1", "phi=2",
    "nx=1", "ny=0", "nz=0", "nx=0.6", "nz=0.8", "nx=1e200", "=", "#",
]) | st.text(max_size=4)
LINES = st.lists(st.lists(TOKENS, max_size=8).map(" ".join), max_size=8)


@FUZZ
@given(lines=LINES, header=st.booleans())
def test_parse_circuit_returns_or_raises_circuit_parse_error(lines, header):
    text = "\n".join((["qubits 3"] if header else []) + lines)
    try:
        parse_circuit(text)
    except CircuitParseError:
        pass
