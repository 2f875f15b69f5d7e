"""Property-based fuzzing of the outside inputs: the two parsers, the program
contract and the one real-number rule of axes and angles.

Each parser either returns or raises its own error type; any other exception
would reach the CLI as a traceback. Every entry point of a program (validate,
serialize, simulate, check) refuses the same broken programs with the same
message, and what serialize_program writes parses back to the same text. An
axis or angle taker returns or raises ValueError, with no warning, and
accepts exactly the components or angles that ``_is_real`` accepts.
"""

import json
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from switchsynth.circuits import GATES, CircuitParseError, parse_circuit
from switchsynth.linalg import (
    _is_real,
    _real,
    basis_state,
    rotation,
    rotation_x,
    rotation_y,
    rotation_z,
    two_qubit_rotation,
    unit_bloch,
)
from switchsynth.lowering import check_equivalence, lower
from switchsynth.programs import (
    MeasureAncilla,
    ProgramError,
    parse_program,
    serialize_program,
    simulate_program,
    validate_program,
)
from switchsynth.switch import branch_functionals
from switchsynth.synthesis import barenco_matrix

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


# the program contract, as validate_program owns it at every entry point
CIRCUIT = parse_circuit("qubits 2\nh 0\ncnot 0 1\nrz 1 theta=0.4\n"
                        "cu 1 0 alpha=0.3 theta=1.1 nx=0 ny=0.6 nz=0.8\ncz 0 1\n")
PROGRAM = lower(CIRCUIT)
MEASUREMENTS = [index for index, inst in enumerate(PROGRAM.instructions)
                if isinstance(inst, MeasureAncilla)]
NOT_UNITARY = "is not unitary within 1e-10"
NOT_SQUARE = "must be a square 2-D complex array, got "
# a broken table entry made from a lowered one, and the message after its id
BAD_ENTRIES = {
    "scaled": (lambda m: 1.5 * m, NOT_UNITARY),
    "non-square": (lambda m: np.hstack([m, m]), NOT_SQUARE),
    "list": (lambda m: m.tolist(), NOT_SQUARE),
    "float": (lambda m: m.real.copy(), NOT_SQUARE),
    "nan": (lambda m: np.full_like(m, complex(math.nan, 0.0)), NOT_UNITARY),
}
BAD_THETAS = [True, "x", None, math.nan, -math.inf, 10 ** 400]


def edited(matrices, theta, field=None):
    """PROGRAM with some table entries replaced, maybe one angle and maybe one
    other instruction field, given as (index, name, value)."""
    program = replace(PROGRAM, matrices={**PROGRAM.matrices, **matrices})
    instructions = list(program.instructions)
    if theta is not None:
        index, value = theta
        instructions[index] = replace(instructions[index], theta=value)
    if field is not None:
        index, name, value = field
        instructions[index] = replace(instructions[index], **{name: value})
    program.instructions = tuple(instructions)
    return program


def theta_fault(index, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"measure_ancilla theta must be a number, got {value!r}"
    return (f"instruction {index} (measure_ancilla "
            f"{PROGRAM.instructions[index].ancilla!r}): measurement angle must be finite")


@FUZZ
@given(edits=st.dictionaries(st.sampled_from(sorted(PROGRAM.matrices)),
                             st.sampled_from(sorted(BAD_ENTRIES)), max_size=3),
       theta=st.none() | st.tuples(st.sampled_from(MEASUREMENTS),
                                   st.sampled_from(BAD_THETAS)))
def test_every_entry_point_names_the_first_contract_fault(edits, theta):
    assume(edits or theta)
    program = edited({key: BAD_ENTRIES[kind][0](PROGRAM.matrices[key])
                      for key, kind in edits.items()}, theta)
    first = next((key for key in program.matrices if key in edits), None)
    want = (f"matrix {first!r} {BAD_ENTRIES[edits[first]][1]}" if first is not None
            else theta_fault(*theta))
    for run in (validate_program, serialize_program,
                lambda p: simulate_program(p, basis_state(2, 0), seed=0),
                lambda p: check_equivalence(CIRCUIT, p, trials=1)):
        with pytest.raises(ProgramError) as err:
            run(program)
        assert str(err.value).startswith(want)


# table entries from lowered ones, unitary or not, and angles of every type
ENTRY_EDITS = st.one_of(
    st.floats(-math.pi, math.pi).map(lambda phi: lambda m: np.exp(1j * phi) * m),
    st.floats(0.0, 1e-9).map(lambda eps: lambda m: m + eps),  # about UNITARY_ATOL
    st.floats().map(lambda scale: lambda m: scale * m),
    st.sampled_from([kind for kind, _ in BAD_ENTRIES.values()]),
)
THETAS = (st.floats() | st.integers(min_value=-10 ** 400, max_value=10 ** 400)
          | st.floats(-10.0, 10.0).map(np.float64) | st.booleans() | st.none()
          | st.text(max_size=3))
# every label, matrix reference and qubit list of PROGRAM, and values for it:
# the program's own labels and ids, other text, and values of other types
SITES = [(index, f.name) for index, inst in enumerate(PROGRAM.instructions)
         for f in fields(inst) if f.name != "theta"]
LABELS = sorted({getattr(PROGRAM.instructions[index], name)
                 for index, name in SITES if name != "qubits"})
LABEL_VALUES = (st.sampled_from(LABELS) | st.text(max_size=3)
                | st.sampled_from(LABELS).map(np.str_) | st.integers(-1, 2)
                | st.booleans() | st.none())
INDICES = (st.integers(-1, 2) | st.booleans() | st.integers(0, 1).map(np.int64)
           | st.floats(0.0, 1.0))
QUBIT_VALUES = (st.lists(INDICES, max_size=3) | st.lists(INDICES, max_size=3).map(tuple)
                | INDICES | st.none() | st.text(max_size=2))
FIELD_EDITS = st.sampled_from(SITES).flatmap(lambda site: st.tuples(
    *map(st.just, site), QUBIT_VALUES if site[1] == "qubits" else LABEL_VALUES))


# no RuntimeWarning reaches the caller, whatever the table holds
@pytest.mark.filterwarnings("error::RuntimeWarning")
@FUZZ
@given(edits=st.dictionaries(st.sampled_from(sorted(PROGRAM.matrices)), ENTRY_EDITS,
                             max_size=3),
       theta=st.none() | st.tuples(st.sampled_from(MEASUREMENTS), THETAS),
       field=st.none() | FIELD_EDITS)
def test_every_serialized_program_parses_and_reserializes_byte_for_byte(
        edits, theta, field):
    with np.errstate(all="ignore"):  # the edits themselves may overflow
        entries = {key: edit(PROGRAM.matrices[key]) for key, edit in edits.items()}
    program = edited(entries, theta, field)
    try:
        text = serialize_program(program)
    except ProgramError:
        return
    assert serialize_program(parse_program(text)) == text


# real numbers of every type the rule takes, and values it refuses: bools,
# complex numbers, text, None and 0-d arrays, which numpy would read as numbers
UNIT_PARTS = st.sampled_from([0, 1, -1, 0.0, -0.0, 0.6, -0.8, np.int64(1), np.uint8(0),
                              np.float64(0.6), np.float64(-1.0)])
REALS = st.one_of(
    UNIT_PARTS,
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.integers(-2 ** 63 + 1, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(), st.floats().map(np.float64), st.floats(width=32).map(np.float32),
)
UNREALS = st.one_of(
    st.booleans(), st.booleans().map(np.bool_), st.complex_numbers(),
    st.complex_numbers().map(np.complex128), st.text(max_size=3), st.none(),
    st.floats().map(np.array), st.integers(-2, 2).map(np.array),
    st.complex_numbers().map(np.array), st.booleans().map(np.array),
)


@FUZZ
@given(axis=st.lists(REALS | UNREALS, min_size=3, max_size=3).map(tuple)
       | st.lists(UNIT_PARTS, min_size=3, max_size=3).map(tuple))
def test_unit_bloch_follows_the_one_real_number_rule(axis):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            v = unit_bloch(axis)
        except ValueError as error:
            assert type(error) is ValueError
            if not all(map(_is_real, axis)):
                assert str(error).startswith("axis components must be real numbers, got ")
            return
    assert all(map(_is_real, axis))
    assert v.shape == (3,) and abs(v @ v - 1.0) <= 1e-12


ANGLE_TAKERS = {
    "rotation": lambda a: rotation((0.0, 0.6, 0.8), a),
    "rotation_x": rotation_x,
    "rotation_y": rotation_y,
    "rotation_z": rotation_z,
    "two_qubit_rotation": lambda a: two_qubit_rotation((1, 0, 0), (0.0, 0.6, 0.8), a),
    "barenco_matrix_alpha": lambda a: barenco_matrix(a, 0.7, 0.3),
    "barenco_matrix_phi": lambda a: barenco_matrix(0.3, a, 0.3),
    "barenco_matrix_theta": lambda a: barenco_matrix(0.3, 0.7, a),
    "branch_functionals": branch_functionals,
}


@FUZZ
@given(taker=st.sampled_from(sorted(ANGLE_TAKERS)), angle=REALS | UNREALS)
def test_an_angle_taker_accepts_exactly_the_finite_reals(taker, angle):
    finite = _is_real(angle) and math.isfinite(_real(angle, "theta"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = ANGLE_TAKERS[taker](angle)
        except ValueError as error:
            assert type(error) is ValueError and not finite
            return
    assert finite
    assert all(np.isfinite(array).all() for array in (out if type(out) is tuple else (out,)))
