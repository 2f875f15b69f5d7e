import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from switchsynth import programs
from switchsynth.circuits import parse_circuit
from switchsynth.jsonio import dumps, format_float
from switchsynth.linalg import (
    MAX_QUBITS,
    H,
    X,
    Z,
    basis_state,
    normalize,
    rotation,
    zero_state,
)
from switchsynth.lowering import check_equivalence, lower
from switchsynth.programs import (
    MAX_HELD_QUBITS,
    OPS,
    AllocAncilla,
    ApplyLocal,
    CondApply,
    Discard,
    MeasureAncilla,
    ProgramError,
    SwitchApply,
    SwitchProgram,
    matrix_id,
    matrix_text,
    parse_program,
    program_document,
    serialize_program,
    simulate_program,
    validate_program,
)
from switchsynth.switch import branch_gates

from oracles import matrix_entries


def switch_block(program, mat_a, mat_b, theta, qubits, index):
    a = program.add_matrix(mat_a)
    b = program.add_matrix(mat_b)
    return [
        AllocAncilla(f"a{index}"),
        SwitchApply(a, b, qubits, f"a{index}"),
        MeasureAncilla(theta, f"a{index}", f"m{index}"),
        Discard(f"a{index}"),
    ]


def ancilla_stack_document(num_ancillas):
    """One data qubit and ``num_ancillas`` ancillas allocated before any is
    measured."""
    labels = [f"a{i}" for i in range(num_ancillas)]
    return json.dumps({"num_data_qubits": 1, "matrices": {}, "instructions": [
        *({"op": "alloc_ancilla", "ancilla": a} for a in labels),
        *({"op": "measure_ancilla", "theta": 0.0, "ancilla": a, "result": "r" + a}
          for a in labels),
        *({"op": "discard", "ancilla": a} for a in labels)]})


def test_matrix_entries_row_major():
    assert matrix_entries(np.array([[1, 2j], [3, 4]])) == [
        [1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [4.0, 0.0]]


def test_matrix_id_content_addressed():
    assert matrix_id(X) == matrix_id(X.copy())
    assert matrix_id(X) != matrix_id(Z)
    assert matrix_id(X).startswith("m")
    assert len(matrix_id(X)) == 13
    # -0.0 and 0.0 hash alike, matching serialized text
    assert matrix_id(np.array([[0.0]])) == matrix_id(np.array([[-0.0]]))


def test_add_matrix_interns():
    program = SwitchProgram(num_data_qubits=1)
    key1 = program.add_matrix(X)
    key2 = program.add_matrix(X.copy())
    assert key1 == key2
    assert len(program.matrices) == 1
    with pytest.raises(ValueError):
        program.add_matrix(np.ones((2, 3)))


def test_add_matrix_ids_are_matrix_ids_with_or_without_the_memo():
    mats = [H, X, Z, rotation((0.6, 0.0, 0.8), 0.7), np.kron(H, X)]
    program = SwitchProgram(num_data_qubits=2)
    for m in mats + mats:  # the second round is answered by the memo
        assert program.add_matrix(m.copy()) == matrix_id(m)
    assert len(program.matrices) == len(mats)
    fresh = SwitchProgram(num_data_qubits=2)
    assert [fresh.add_matrix(m) for m in reversed(mats)] == [
        matrix_id(m) for m in reversed(mats)]


def test_add_matrix_gives_zero_and_negative_zero_one_id():
    zero = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    negative_zero = np.array([[complex(-0.0, -0.0), 1.0],
                              [1.0, complex(0.0, -0.0)]])
    assert zero.tobytes() != negative_zero.tobytes()
    program = SwitchProgram(num_data_qubits=1)
    keys = [program.add_matrix(m)
            for m in (zero, negative_zero, negative_zero, zero)]
    assert keys == [matrix_id(zero)] * 4
    assert list(program.matrices) == [matrix_id(zero)]
    # the table keeps the first matrix added under an id
    assert program.matrices[keys[0]].tobytes() == zero.tobytes()


def test_matrix_text_is_format_float_text():
    values = [-0.0, 5e-324, 1e-300, 1 / 3, -1e300, 0.1, 1.0, -2.5]
    m = np.array(values[0::2]) + 1j * np.array(values[1::2])
    m = m.reshape(2, 2)
    assert matrix_text(m) == "|".join(
        f"{format_float(re)},{format_float(im)}" for re, im in matrix_entries(m))
    assert matrix_text(m.T.copy().T) == matrix_text(m)  # column-major input
    program = SwitchProgram(num_data_qubits=1)
    key = program.add_matrix(m)
    # the document's one-format entries are format_float text too
    assert f'"{key}": [' + ", ".join(
        f"[{format_float(re)}, {format_float(im)}]" for re, im in matrix_entries(m)
    ) + "]" in dumps(program_document(program))
    # the table is not unitary, so serialize_program refuses it
    with pytest.raises(ProgramError, match=f"matrix '{key}' is not unitary"):
        serialize_program(program)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(1.0, np.inf),
                                 complex(-np.inf, np.nan)])
def test_add_matrix_rejects_non_finite_as_format_float_does(bad):
    m = np.array([[1.0, 0.0], [0.0, bad]], dtype=complex)
    first = next(v for v in (bad.real, bad.imag) if not np.isfinite(v))
    with pytest.raises(ValueError) as want:
        format_float(first)
    with pytest.raises(ValueError) as got:
        SwitchProgram(num_data_qubits=1).add_matrix(m)
    assert str(got.value) == str(want.value)


def test_replaced_matrix_serializes_with_its_new_content():
    program = SwitchProgram(num_data_qubits=1)
    key = program.add_matrix(X)
    program.instructions = (ApplyLocal(key, (0,)),)
    program.matrices[key] = Z.copy()
    text = serialize_program(program)
    assert json.loads(text)["matrices"][key] == matrix_entries(Z)
    assert text == dumps(program_document(program))
    copied = replace(program, matrices={key: H.copy()})
    assert json.loads(serialize_program(copied))["matrices"][key] == \
        matrix_entries(H)


def test_add_matrix_refuses_a_parsed_id_that_holds_other_content():
    program = SwitchProgram(num_data_qubits=1)
    program.instructions = tuple(switch_block(program, H, X, 0.0, (0,), 0))
    doc = json.loads(serialize_program(program))
    h, x = matrix_id(H), matrix_id(X)
    doc["matrices"][h], doc["matrices"][x] = doc["matrices"][x], doc["matrices"][h]
    parsed = parse_program(dumps(doc))  # the ids are not re-hashed on parse
    with pytest.raises(ProgramError, match=h):
        parsed.add_matrix(H)
    with pytest.raises(ProgramError, match=x):
        parsed.add_matrix(X)
    assert parsed.matrices[h].tobytes() == X.astype(complex).tobytes()
    assert parsed.add_matrix(Z) == matrix_id(Z)
    # a consistent parsed table interns its own matrices, -0.0 twins too
    parsed = parse_program(serialize_program(program))
    assert parsed.add_matrix(H) == h
    twin = np.array(X, dtype=complex)
    twin.imag[:] = -0.0
    assert twin.tobytes() != parsed.matrices[x].tobytes()
    assert parsed.add_matrix(twin) == x


def test_add_matrix_checks_the_entry_under_a_remembered_id():
    program = SwitchProgram(num_data_qubits=1)
    key = program.add_matrix(X)
    program.matrices[key] = Z.copy()  # the memo still maps X's content to key
    with pytest.raises(ProgramError, match=f"^matrix table holds other content "
                                           f"under id '{key}'$"):
        program.add_matrix(X)
    assert program.matrices[key].tobytes() == Z.tobytes()
    # a deleted entry is interned again, and a fresh equal array on a memo
    # hit returns the same id
    del program.matrices[key]
    assert program.add_matrix(X) == key
    assert program.matrices[key].tobytes() == X.tobytes()
    assert program.add_matrix(X.copy()) == key
    assert list(program.matrices) == [key]


def test_validate_caps_the_qubits_held_at_once():
    program = SwitchProgram(num_data_qubits=1)
    # measured ancillas leave the state, so undiscarded ones are not held
    blocks = [switch_block(program, X, Z, 0.0, (0,), i)
              for i in range(MAX_QUBITS + 5)]
    program.instructions = tuple([i for b in blocks for i in b[:-1]]
                                 + [b[-1] for b in blocks])
    validate_program(program)
    # one data qubit: the stack is refused at its MAX_QUBITS + 1st ancilla
    assert MAX_HELD_QUBITS == MAX_QUBITS + 1
    with pytest.raises(ProgramError) as err:
        parse_program(ancilla_stack_document(MAX_QUBITS + 1))
    assert (f"instruction {MAX_QUBITS} (alloc_ancilla 'a{MAX_QUBITS}') "
            f"holds {MAX_HELD_QUBITS + 1} qubits at once, above the maximum "
            f"of {MAX_HELD_QUBITS}") in str(err.value)


def test_validate_accepts_full_lifecycle():
    program = SwitchProgram(num_data_qubits=1)
    program.instructions = tuple(switch_block(program, X, Z, 0.0, (0,), 0))
    validate_program(program)


@pytest.mark.parametrize("build,fragment", [
    (lambda p: [AllocAncilla("a0", state="zero")], "unsupported ancilla state"),
    (lambda p: [AllocAncilla("a0"), AllocAncilla("a0")], "allocated twice"),
    (lambda p: [ApplyLocal("nope", (0,))], "unknown matrix"),
    (lambda p: [ApplyLocal(p.add_matrix(np.eye(4)), (0,))], "has dim 4"),
    (lambda p: [ApplyLocal(p.add_matrix(np.eye(4)), (0, 0))], "must be distinct"),
    (lambda p: [ApplyLocal(p.add_matrix(np.eye(2)), (1,))], "out of range"),
    (lambda p: [SwitchApply(p.add_matrix(X), p.add_matrix(Z), (0,), "a0")],
     "unallocated ancilla"),
    (lambda p: [MeasureAncilla(0.0, "a0", "m0")], "unallocated ancilla"),
    (lambda p: [AllocAncilla("a0"), MeasureAncilla(0.0, "a0", "m0"),
                MeasureAncilla(0.0, "a0", "m1")], "already measured"),
    (lambda p: [AllocAncilla("a0"), MeasureAncilla(0.0, "a0", "m0"),
                AllocAncilla("a1"), MeasureAncilla(0.0, "a1", "m0")],
     "result label 'm0' reused"),
    (lambda p: [CondApply("m0", "plus", p.add_matrix(X), (0,))],
     "unmeasured result"),
    (lambda p: [AllocAncilla("a0"), MeasureAncilla(0.0, "a0", "m0"),
                CondApply("m0", "sideways", p.add_matrix(X), (0,))],
     "unknown outcome"),
    (lambda p: [AllocAncilla("a0"), Discard("a0")], "measured first"),
    (lambda p: [AllocAncilla("a0")], "never discarded"),
    (lambda p: [AllocAncilla("a0"), MeasureAncilla(0.0, "a0", "m0"),
                Discard("a0"), SwitchApply(p.add_matrix(X), p.add_matrix(Z),
                                           (0,), "a0")], "discarded ancilla"),
])
def test_validate_rejects_contract_violations(build, fragment):
    program = SwitchProgram(num_data_qubits=1)
    program.instructions = tuple(build(program))
    with pytest.raises(ProgramError) as err:
        validate_program(program)
    assert fragment in str(err.value)


def test_serialize_parse_round_trip():
    program = SwitchProgram(num_data_qubits=2)
    pre = program.add_matrix(np.kron(X, Z))
    instructions = [ApplyLocal(pre, (0, 1))]
    instructions += switch_block(program, X, Z, 0.25, (0,), 0)
    instructions += switch_block(program, H, Z, -0.5, (1,), 1)
    program.instructions = tuple(instructions)

    text = serialize_program(program)
    parsed = parse_program(text)
    assert parsed.num_data_qubits == 2
    assert parsed.instructions == program.instructions
    assert set(parsed.matrices) == set(program.matrices)
    for key, m in program.matrices.items():
        assert_allclose(parsed.matrices[key], m, atol=0)
    # reserialization is byte-identical
    assert serialize_program(parsed) == text


def test_program_document_sorts_matrices():
    program = SwitchProgram(num_data_qubits=1)
    program.instructions = tuple(switch_block(program, Z, H, 0.0, (0,), 0))
    doc = program_document(program)
    assert list(doc["matrices"]) == sorted(doc["matrices"])
    assert doc["instructions"][0]["op"] == "alloc_ancilla"
    assert doc["instructions"][1]["op"] == "switch_apply"
    assert doc["instructions"][2]["op"] == "measure_ancilla"
    assert doc["instructions"][3]["op"] == "discard"


@pytest.mark.parametrize("text,fragment", [
    ("not json", "invalid program JSON"),
    ("[1, 2]", "must be a JSON object"),
    ('{"num_data_qubits": 1}', "malformed program document"),
    ('{"num_data_qubits": 1, "matrices": {"m0": [[1, 0], [0, 0], [0, 0]]}, '
     '"instructions": []}', "not square"),
    ('{"num_data_qubits": 1, "matrices": {}, '
     '"instructions": [{"op": "warp"}]}', "unknown instruction op"),
    ('{"num_data_qubits": 1, "matrices": {}, '
     '"instructions": [{"op": "alloc_ancilla", "ancilla": "a0"}]}',
     "never discarded"),
    ('{"num_data_qubits": 1, "matrices": {"m0": [[0, 0], [1, 0], [1, 0], [0, 0]]}, '
     '"instructions": [{"op": "apply_local", "matrix": "m0", "qubits": [0.5]}]}',
     "qubit indices must be integers"),
    ('{"num_data_qubits": 1, "matrices": {"m0": [[0, 0], [1, 0], [1, 0], [0, 0]]}, '
     '"instructions": [{"op": "apply_local", "matrix": "m0", "qubits": [true]}]}',
     "qubit indices must be integers"),
    ('{"num_data_qubits": 1, "matrices": {}, "instructions": ['
     '{"op": "alloc_ancilla", "ancilla": "a0"}, '
     '{"op": "measure_ancilla", "theta": NaN, "ancilla": "a0", "result": "m0"}, '
     '{"op": "discard", "ancilla": "a0"}]}',
     "measurement angle must be finite"),
    ('{"num_data_qubits": 1, "matrices": {}, "instructions": ['
     '{"op": "alloc_ancilla", "ancilla": "a0"}, '
     '{"op": "measure_ancilla", "theta": -Infinity, "ancilla": "a0", "result": "m0"}, '
     '{"op": "discard", "ancilla": "a0"}]}',
     "measurement angle must be finite"),
    ('{"num_data_qubits": 1, "matrices": {"m0": [[2, 0], [0, 0], [0, 0], [2, 0]]}, '
     '"instructions": [{"op": "apply_local", "matrix": "m0", "qubits": [0]}]}',
     "matrix 'm0' is not unitary"),
    ('{"num_data_qubits": -1, "matrices": {}, "instructions": []}',
     "num_data_qubits must be a non-negative integer, got -1"),
    ('{"num_data_qubits": 2.7, "matrices": {}, "instructions": []}',
     "num_data_qubits must be a non-negative integer, got 2.7"),
    ('{"num_data_qubits": 2.0, "matrices": {}, "instructions": []}',
     "num_data_qubits must be a non-negative integer, got 2.0"),
    ('{"num_data_qubits": true, "matrices": {}, "instructions": []}',
     "num_data_qubits must be a non-negative integer, got True"),
    ('{"num_data_qubits": "2", "matrices": {}, "instructions": []}',
     "num_data_qubits must be a non-negative integer, got '2'"),
    (f'{{"num_data_qubits": {MAX_QUBITS + 1}, "matrices": {{}}, "instructions": []}}',
     f"num_data_qubits {MAX_QUBITS + 1} exceeds the maximum of {MAX_QUBITS}"),
    ('{"num_data_qubits": 1000000000000, "matrices": {}, "instructions": []}',
     "num_data_qubits 1000000000000 exceeds the maximum"),
    pytest.param(ancilla_stack_document(40),
                 f"qubits at once, above the maximum of {MAX_HELD_QUBITS}",
                 id="forty_ancillas_held"),
    ('{"num_data_qubits": 1, "matrices": [], "instructions": []}',
     "matrices must be a JSON object"),
    ('{"num_data_qubits": 1, "matrices": {}, "instructions": {}}',
     "instructions must be a JSON array"),
    ('{"num_data_qubits": 1, "matrices": {}, "instructions": [["discard"]]}',
     "instruction record must be a JSON object"),
    ('{"num_data_qubits": 1, "matrices": {}, '
     '"instructions": [{"op": "apply_local", "matrix": ["m0"], "qubits": [0]}]}',
     "apply_local matrix must be a string, got ['m0']"),
    ('{"num_data_qubits": 1, "matrices": {}, '
     '"instructions": [{"op": "alloc_ancilla", "ancilla": ["a0"]}]}',
     "alloc_ancilla ancilla must be a string"),
    ('{"num_data_qubits": 1, "matrices": {}, "instructions": ['
     '{"op": "alloc_ancilla", "ancilla": "a0"}, '
     '{"op": "measure_ancilla", "theta": 1.5, "ancilla": "a0", "result": []}, '
     '{"op": "discard", "ancilla": "a0"}]}',
     "measure_ancilla result must be a string"),
    ('{"num_data_qubits": 1, "matrices": {}, "instructions": ['
     '{"op": "alloc_ancilla", "ancilla": "a0"}, '
     '{"op": "measure_ancilla", "theta": "1.5", "ancilla": "a0", "result": "m0"}, '
     '{"op": "discard", "ancilla": "a0"}]}',
     "measure_ancilla theta must be a number, got '1.5'"),
    ('{"num_data_qubits": 1, "matrices": {}, "instructions": ['
     '{"op": "alloc_ancilla", "ancilla": "a0"}, '
     '{"op": "measure_ancilla", "theta": true, "ancilla": "a0", "result": "m0"}, '
     '{"op": "discard", "ancilla": "a0"}]}',
     "measure_ancilla theta must be a number, got True"),
    ('{"num_data_qubits": 1, "matrices": {}, "instructions": ['
     '{"op": "alloc_ancilla", "ancilla": "a0"}, '
     '{"op": "measure_ancilla", "theta": 1' + '0' * 400 + ', "ancilla": "a0", '
     '"result": "m0"}, {"op": "discard", "ancilla": "a0"}]}',
     "instruction 1 (measure_ancilla 'a0'): measurement angle must be finite"),
    pytest.param("1" * 5000, "invalid program JSON", id="too_many_digits"),
    pytest.param("[" * 100000, "invalid program JSON", id="too_deep"),
])
def test_parse_program_rejects_malformed_documents(text, fragment):
    with pytest.raises(ProgramError) as err:
        parse_program(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("entry", ["[true, 0]", "[0, false]"])
def test_parse_program_refuses_a_json_bool_matrix_entry(entry):
    # complex(True, 0) is 1, so a bool entry would parse as a number
    text = ('{"num_data_qubits": 1, "matrices": {"m0": [' + entry + ', [0, 0], [0, 0], '
            '[1, 0]]}, "instructions": [{"op": "apply_local", "matrix": "m0", "qubits": [0]}]}')
    with pytest.raises(ProgramError, match=r"^matrix 'm0' entries must be numbers, got \["):
        parse_program(text)


def test_simulate_local_only():
    program = SwitchProgram(num_data_qubits=1)
    program.instructions = (ApplyLocal(program.add_matrix(H), (0,)),)
    trace = simulate_program(program, zero_state(1))
    assert_allclose(trace.final_state, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-15)
    assert trace.measurement_record == ()
    assert trace.seed is None


def test_simulate_forced_branches_give_branch_gates():
    theta = 0.8
    psi = normalize(np.array([0.6, 0.8j]))
    s_plus, s_minus = branch_gates(X, Z, theta)
    for name, gate in (("plus", s_plus), ("minus", s_minus)):
        program = SwitchProgram(num_data_qubits=1)
        program.instructions = tuple(switch_block(program, X, Z, theta, (0,), 0))
        trace = simulate_program(program, psi, forced=name)
        want = gate @ psi
        prob = float(np.vdot(want, want).real) / 2.0
        label, outcome, probability = trace.measurement_record[0]
        assert (label, outcome) == ("m0", name)
        assert probability == pytest.approx(prob, abs=1e-12)
        assert_allclose(trace.final_state, want / np.linalg.norm(want),
                        atol=1e-12)


def test_simulate_interleaved_ancillas_reorders_correctly():
    # measure a0 while a1 is still allocated behind it
    theta0, theta1 = 0.3, 1.1
    psi = normalize(np.array([1.0, 1j]))
    program = SwitchProgram(num_data_qubits=1)
    a = program.add_matrix(X)
    b = program.add_matrix(Z)
    program.instructions = (
        AllocAncilla("a0"),
        AllocAncilla("a1"),
        SwitchApply(a, b, (0,), "a0"),
        SwitchApply(a, b, (0,), "a1"),
        MeasureAncilla(theta0, "a0", "m0"),
        MeasureAncilla(theta1, "a1", "m1"),
        Discard("a0"),
        Discard("a1"),
    )
    for names in (("plus", "plus"), ("plus", "minus"),
                  ("minus", "plus"), ("minus", "minus")):
        trace = simulate_program(program, psi,
                                 forced={"m0": names[0], "m1": names[1]})
        gates0 = dict(zip(("plus", "minus"), branch_gates(X, Z, theta0)))
        gates1 = dict(zip(("plus", "minus"), branch_gates(X, Z, theta1)))
        want = gates1[names[1]] @ gates0[names[0]] @ psi
        assert_allclose(trace.final_state, want / np.linalg.norm(want),
                        atol=1e-12)


def test_simulate_sampling_is_seeded():
    program = SwitchProgram(num_data_qubits=1)
    program.instructions = tuple(switch_block(program, X, Z, 0.0, (0,), 0))
    first = simulate_program(program, zero_state(1), seed=5)
    second = simulate_program(program, zero_state(1), seed=5)
    assert first.measurement_record == second.measurement_record
    assert_allclose(first.final_state, second.final_state, atol=0)
    assert first.measurement_record[0][2] == pytest.approx(0.5, abs=1e-12)
    seen = {simulate_program(program, zero_state(1), seed=s)
            .measurement_record[0][1] for s in range(20)}
    assert seen == {"plus", "minus"}


@pytest.mark.parametrize("seed", [-1, 2.5, True, "3", np.float64(3.0)])
def test_simulate_refuses_a_bad_seed_naming_it(seed):
    program = SwitchProgram(num_data_qubits=1)
    program.instructions = tuple(switch_block(program, X, Z, 0.0, (0,), 0))
    for forced in (None, "plus"):
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be a non-negative integer, got {seed!r}")):
            simulate_program(program, zero_state(1), seed=seed, forced=forced)


def test_simulate_records_its_seed_as_a_plain_int():
    program = SwitchProgram(num_data_qubits=1)
    program.instructions = tuple(switch_block(program, X, Z, 0.0, (0,), 0))
    trace = simulate_program(program, zero_state(1), seed=np.int64(3))
    assert type(trace.seed) is int and trace.seed == 3
    plain = simulate_program(program, zero_state(1), seed=3)
    assert trace.measurement_record == plain.measurement_record
    assert simulate_program(program, zero_state(1)).seed is None


def test_simulate_rejects_zero_probability_forced_branch():
    program = SwitchProgram(num_data_qubits=1)
    # S_plus of (H, Z) at theta = pi/2 is proportional to I - Y, which
    # annihilates the +1 eigenvector of Y
    program.instructions = tuple(switch_block(program, H, Z, np.pi / 2, (0,), 0))
    psi = normalize(np.array([1.0, 1j]))
    with pytest.raises(ProgramError) as err:
        simulate_program(program, psi, forced="plus")
    assert "probability 0" in str(err.value)


@pytest.mark.parametrize("psi,name", [((1.0, 1j), "plus"), ((1.0, -1j), "minus")])
def test_every_walk_refuses_a_followed_zero_branch_by_name(psi, name):
    # S_plus of (H, Z) at theta = pi/2 annihilates the +1 eigenvector of Y,
    # and S_minus the -1 eigenvector
    program = SwitchProgram(num_data_qubits=1)
    program.instructions = tuple(switch_block(program, H, Z, np.pi / 2, (0,), 0))
    psi = normalize(np.array(psi))
    message = f"^branch '{name}' of 'm0' has probability 0$"
    with pytest.raises(ProgramError, match=message):
        next(programs._BoundProgram(program).walk(psi, programs._Tree(1, None)))
    with pytest.raises(ProgramError, match=message):
        simulate_program(program, psi, forced=name)


def drifting_program():
    """(1 + 3e-11) I, unitary within UNITARY_ATOL, three times, then one block:
    the table check passes, and the measured state's squared norm is
    1 + 1.8e-10, off 1 by more than UNITARY_ATOL."""
    program = SwitchProgram(num_data_qubits=1)
    drift = program.add_matrix((1 + 3e-11) * np.eye(2))
    program.instructions = ((ApplyLocal(drift, (0,)),) * 3
                            + tuple(switch_block(program, X, X, 0.5, (0,), 0)))
    return program


def test_every_walk_names_the_measurement_of_a_state_off_norm_1():
    program = drifting_program()
    validate_program(program)
    message = "^state measured into 'm0' is not normalized$"
    for kwargs in ({"seed": 3}, {"forced": "plus"}, {"forced": "minus"}):
        with pytest.raises(ProgramError, match=message):
            simulate_program(program, zero_state(1), **kwargs)
    with pytest.raises(ProgramError, match=message):
        check_equivalence(parse_circuit("qubits 1\n"), program, trials=2)


@pytest.mark.parametrize("applies,drift", [(2, 1.2e-10), (100, 6.0e-9)])
def test_every_walk_refuses_a_final_state_off_norm_1(applies, drift):
    # each (1 + 3e-11) I passes the table's unitary check; with no
    # measurement, the drift reaches the final state
    program = SwitchProgram(num_data_qubits=1)
    program.instructions = (ApplyLocal(program.add_matrix((1 + 3e-11) * np.eye(2)),
                                       (0,)),) * applies
    validate_program(program)
    message = "^final state is not normalized: squared norm "
    for kwargs in ({"seed": 3}, {"forced": {}}, {"forced": "plus"}):
        with pytest.raises(ProgramError, match=message) as caught:
            simulate_program(program, zero_state(1), **kwargs)
        norm = float(str(caught.value).rsplit(" ", 1)[1])
        assert norm - 1.0 == pytest.approx(drift, rel=1e-2)
    with pytest.raises(ProgramError, match=message):
        check_equivalence(parse_circuit("qubits 1\n"), program, trials=2)


@pytest.mark.parametrize("forced", [None, "plus", {"m0": "minus", "m1": "plus"}],
                         ids=["sampled", "forced_plus", "forced_mapping"])
def test_a_run_records_a_tuple_of_plain_tuples(forced):
    trace = simulate_program(two_block_program(), zero_state(1), seed=7, forced=forced)
    record = trace.measurement_record
    assert type(record) is tuple and len(record) == 2
    for entry in record:
        assert type(entry) is tuple and [type(v) for v in entry] == [str, str, float]
    assert [label for label, _, _ in record] == ["m0", "m1"]


def test_simulate_rejects_bad_inputs():
    program = SwitchProgram(num_data_qubits=1)
    program.instructions = tuple(switch_block(program, X, Z, 0.0, (0,), 0))
    with pytest.raises(ProgramError):
        simulate_program(program, basis_state(2, 0))
    with pytest.raises(ProgramError):
        simulate_program(program, zero_state(1), forced="maybe")


@pytest.mark.parametrize("length", [0, 3, 8])
def test_every_walk_refuses_an_input_of_the_wrong_length(length):
    program = lower(parse_circuit("qubits 2\ncnot 0 1\n"))
    psi = np.zeros(length, dtype=complex)
    psi[:1] = 1.0
    message = f"^input has {length} amplitudes, program needs 4$"
    with pytest.raises(ProgramError, match=message):
        simulate_program(program, psi, seed=0)
    with pytest.raises(ProgramError, match=message):
        next(programs._BoundProgram(program).walk(psi, programs._Tree(1, None)))


def test_every_op_round_trips_through_its_record():
    program = SwitchProgram(num_data_qubits=1)
    x = program.add_matrix(X)
    instructions = [ApplyLocal(x, (0,))] + switch_block(program, X, Z, 0.25, (0,), 0)
    instructions.insert(-1, CondApply("m0", "minus", x, (0,)))
    program.instructions = tuple(instructions)
    records = program_document(program)["instructions"]
    assert {record["op"] for record in records} == set(OPS)
    for record, inst in zip(records, program.instructions):
        assert OPS[record["op"]] is type(inst)
        assert list(record) == ["op", *(f.name for f in fields(inst))]
    assert parse_program(serialize_program(program)).instructions == program.instructions


def two_block_program():
    program = SwitchProgram(num_data_qubits=1)
    program.instructions = tuple(switch_block(program, X, Z, 0.3, (0,), 0)
                                 + switch_block(program, X, Z, 1.1, (0,), 1))
    return program


def test_simulate_rejects_a_forced_mapping_missing_a_label():
    with pytest.raises(ProgramError, match="no forced outcome for result label 'm1'"):
        simulate_program(two_block_program(), zero_state(1), forced={"m0": "plus"})


def test_simulate_rejects_a_forced_mapping_naming_an_unmeasured_label():
    with pytest.raises(ProgramError, match="forced outcome for result label 'm7', "
                                           "which the program never measures"):
        simulate_program(two_block_program(), zero_state(1),
                         forced={"m0": "plus", "m1": "minus", "m7": "minus"})


@pytest.mark.parametrize("forced", [5, ["plus"], ("plus", "minus")],
                         ids=["int", "list", "tuple"])
def test_simulate_refuses_a_forced_value_neither_a_name_nor_a_mapping(forced):
    with pytest.raises(ProgramError, match="forced must be a branch name or a "
                                           "mapping from result label to branch "
                                           "name, got "):
        simulate_program(two_block_program(), zero_state(1), forced=forced)


def test_simulate_records_plain_branch_names_for_a_forced_mapping():
    forced = {"m0": np.str_("plus"), "m1": np.str_("minus")}
    trace = simulate_program(two_block_program(), zero_state(1), forced=forced)
    assert [type(name) for _, name, _ in trace.measurement_record] == [str, str]
    assert [name for _, name, _ in trace.measurement_record] == ["plus", "minus"]


def test_validate_resolves_positions_counts_and_record_indices():
    program = SwitchProgram(num_data_qubits=1)
    a, b = program.add_matrix(X), program.add_matrix(Z)
    program.instructions = (
        AllocAncilla("a0"), AllocAncilla("a1"), SwitchApply(a, b, (0,), "a0"),
        SwitchApply(a, b, (0,), "a1"), MeasureAncilla(0.3, "a0", "m0"),
        MeasureAncilla(1.1, "a1", "m1"), CondApply("m1", "plus", a, [0]),
        Discard("a0"), Discard("a1"))
    resolved = validate_program(program)
    assert [inst for inst, *_ in resolved] == list(program.instructions)
    assert [rest for _, *rest in resolved] == [
        [(), 1, None], [(), 2, None], [(0, 1), 3, None], [(0, 2), 3, None],
        [(1,), 3, 0], [(1,), 2, 1], [(0,), 1, 1], [(), 1, None], [(), 1, None]]


@pytest.mark.parametrize("n", [MAX_QUBITS + 1, MAX_HELD_QUBITS + 1, 10 ** 12])
def test_validate_refuses_more_data_qubits_than_it_can_hold(n):
    with pytest.raises(ProgramError, match=f"num_data_qubits {n} exceeds the "
                                           f"maximum of {MAX_QUBITS}"):
        validate_program(SwitchProgram(num_data_qubits=n))


@pytest.mark.parametrize("n", [-1, True, 2.0, "2"])
def test_validate_and_serialize_refuse_a_data_qubit_count_parse_refuses(n):
    # a Python-built program must not serialize to a document parse refuses
    for run in (validate_program, serialize_program):
        with pytest.raises(ProgramError, match="num_data_qubits must be a "
                                               f"non-negative integer, got {n!r}"):
            run(SwitchProgram(num_data_qubits=n))


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_non_finite_measurement_angles_are_refused_at_their_index(theta):
    program = SwitchProgram(num_data_qubits=1)
    program.instructions = tuple(switch_block(program, X, Z, theta, (0,), 0))
    want = (f"instruction 2 (measure_ancilla 'a0'): measurement angle must be "
            f"finite, got {theta}")
    for run in (validate_program, serialize_program,
                lambda p: simulate_program(p, zero_state(1), seed=1)):
        with pytest.raises(ProgramError) as err:
            run(program)
        assert str(err.value) == want


def test_a_measurement_angle_beyond_float_range_is_refused_as_written():
    program = SwitchProgram(num_data_qubits=1)
    program.instructions = tuple(switch_block(program, X, Z, 10 ** 400, (0,), 0))
    want = (f"instruction 2 (measure_ancilla 'a0'): measurement angle must be "
            f"finite, got 1{'0' * 400}")
    for run in (validate_program, serialize_program):
        with pytest.raises(ProgramError) as err:
            run(program)
        assert str(err.value) == want


def non_unitary_local(program):
    return [ApplyLocal(program.add_matrix(2 * np.eye(2)), (0,))]


def non_unitary_switch_gate(program):
    return switch_block(program, X, 2 * Z, 0.0, (0,), 0)


@pytest.mark.parametrize("run", [
    lambda p: simulate_program(p, zero_state(1), seed=3),
    lambda p: simulate_program(p, zero_state(1), forced="plus"),
    lambda p: check_equivalence(parse_circuit("qubits 1\nx 0\n"), p, trials=2),
], ids=["sampled", "forced", "check_equivalence"])
@pytest.mark.parametrize("build,bad", [
    (non_unitary_local, 2 * np.eye(2)), (non_unitary_switch_gate, 2 * Z)])
def test_running_a_non_unitary_matrix_names_it(run, build, bad):
    program = SwitchProgram(num_data_qubits=1)
    program.instructions = tuple(build(program))
    with pytest.raises(ProgramError) as err:
        run(program)
    assert str(err.value) == (f"matrix {matrix_id(bad)!r} is not unitary "
                              f"within 1e-10")


@pytest.mark.parametrize("order", [("m4", "m2"), ("m2", "m4")])
def test_parse_names_the_first_non_unitary_matrix_in_table_order(order):
    entries = {"m2": [[2, 0], [0, 0], [0, 0], [2, 0]],
               "m4": [[2, 0] if i % 5 == 0 else [0, 0] for i in range(16)],
               "ok": [[0, 0], [1, 0], [1, 0], [0, 0]]}
    text = json.dumps({"num_data_qubits": 1, "instructions": [],
                       "matrices": {key: entries[key] for key in ("ok", *order)}})
    with pytest.raises(ProgramError, match=f"matrix '{order[0]}' is not unitary"):
        parse_program(text)


class CountedInstructions(tuple):
    """Instructions that count the walks over them."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_each_entry_point_runs_the_instruction_pass_once(monkeypatch):
    passes = []
    validate = programs.validate_program

    def counted(program):
        passes.append(program)
        return validate(program)
    monkeypatch.setattr(programs, "validate_program", counted)
    circuit = parse_circuit("qubits 2\nh 0\ncnot 0 1\ncz 1 0\n")
    program = lower(circuit)
    text = serialize_program(program)
    assert len(passes) == 1
    parse_program(text)
    assert len(passes) == 2
    program.instructions = CountedInstructions(program.instructions)
    for run in (lambda: simulate_program(program, zero_state(2), seed=2),
                lambda: check_equivalence(circuit, program, trials=2)):
        before, program.instructions.walks = len(passes), 0
        run()
        # bind walks the instructions only through the pass
        assert (len(passes) - before, program.instructions.walks) == (1, 1)


def typed_program():
    """Two data qubits: a local gate, a switch block and a conditional."""
    program = SwitchProgram(num_data_qubits=2)
    h = program.add_matrix(H)
    program.instructions = (ApplyLocal(h, (0,)),
                            *switch_block(program, X, Z, 0.3, (1,), 0),
                            CondApply("m0", "minus", h, (0,)))
    return program


QUBITS_FAULT = "qubit indices must be integers, got {!r}"


# (instruction index, field, wrongly typed value, message template)
@pytest.mark.parametrize("index,field,value,message", [
    (0, "qubits", (True,), QUBITS_FAULT),
    (0, "qubits", (np.int64(0),), QUBITS_FAULT),
    (0, "qubits", 0, QUBITS_FAULT),
    (0, "qubits", "0", QUBITS_FAULT),
    (0, "matrix", 1, "apply_local matrix must be a string, got {!r}"),
    (1, "ancilla", 1, "alloc_ancilla ancilla must be a string, got {!r}"),
    (1, "state", None, "alloc_ancilla state must be a string, got {!r}"),
    (2, "gate_a", None, "switch_apply gate_a must be a string, got {!r}"),
    (2, "gate_b", np.str_("m"), "switch_apply gate_b must be a string, got {!r}"),
    (2, "qubits", (1.0,), QUBITS_FAULT),
    (2, "ancilla", ["a0"], "switch_apply ancilla must be a string, got {!r}"),
    (3, "ancilla", ("a0",), "measure_ancilla ancilla must be a string, got {!r}"),
    (3, "result", 0, "measure_ancilla result must be a string, got {!r}"),
    (4, "ancilla", None, "discard ancilla must be a string, got {!r}"),
    (5, "result", ["m0"], "cond_apply result must be a string, got {!r}"),
    (5, "outcome", True, "cond_apply outcome must be a string, got {!r}"),
    (5, "matrix", None, "cond_apply matrix must be a string, got {!r}"),
    (5, "qubits", [False], QUBITS_FAULT),
])
def test_every_entry_point_applies_the_field_type_rules(index, field, value, message):
    # the rules parse_program applies to a record's JSON values, so a program
    # serializes only if its document parses
    program = typed_program()
    instructions = list(program.instructions)
    instructions[index] = replace(instructions[index], **{field: value})
    program.instructions = tuple(instructions)
    for run in (validate_program, serialize_program,
                lambda p: simulate_program(p, basis_state(2, 0), seed=0),
                lambda p: check_equivalence(parse_circuit("qubits 2\n"), p, trials=1)):
        with pytest.raises(ProgramError) as err:
            run(program)
        assert str(err.value) == message.format(value)


@pytest.mark.parametrize("tag", sorted(OPS))
def test_every_entry_point_names_an_op_by_its_tag(tag):
    # a 5 in the op's first string field: the message starts with its OPS tag
    program = typed_program()
    instructions = list(program.instructions)
    index = next(i for i, inst in enumerate(instructions) if type(inst) is OPS[tag])
    name = next(f.name for f in fields(OPS[tag]) if f.type == "str")
    instructions[index] = replace(instructions[index], **{name: 5})
    program.instructions = tuple(instructions)
    for run in (validate_program, serialize_program,
                lambda p: simulate_program(p, basis_state(2, 0), seed=0),
                lambda p: check_equivalence(parse_circuit("qubits 2\n"), p, trials=1)):
        with pytest.raises(ProgramError) as err:
            run(program)
        assert str(err.value).startswith(f"{tag} ")


def test_qubit_lists_and_tuples_serialize_alike():
    program = typed_program()
    text = serialize_program(program)
    program.instructions = tuple(
        replace(inst, qubits=list(inst.qubits)) if hasattr(inst, "qubits") else inst
        for inst in program.instructions)
    assert serialize_program(program) == text
    assert serialize_program(parse_program(text)) == text


ALLOC_A0 = '{"op": "alloc_ancilla", "ancilla": "a0"'


@pytest.mark.parametrize("text,message", [
    ('{"num_data_qubits": 1, "matrices": {}, "instructions": ['
     + ALLOC_A0 + ', "stat": "minus"}, '
     '{"op": "measure_ancilla", "theta": 0.5, "ancilla": "a0", "result": "m0"}, '
     '{"op": "discard", "ancilla": "a0"}]}',
     "unknown key 'stat' in alloc_ancilla record"),
    ('{"num_data_qubits": 1, "matrices": {}, "instructions": ['
     + ALLOC_A0 + '}, '
     '{"op": "measure_ancilla", "theta": 0.5, "ancilla": "a0", "result": "m0", '
     '"thetta": 1.0}, {"op": "discard", "ancilla": "a0"}]}',
     "unknown key 'thetta' in measure_ancilla record"),
    ('{"num_data_qubits": 1, "matrices": {}, "instructions": [], "comment": "x"}',
     "unknown key 'comment' in the program document"),
    ('{"num_data_qubits": 1, "matrix": {}, "instructions": []}',
     "unknown key 'matrix' in the program document"),
])
def test_parse_program_refuses_unknown_keys(text, message):
    with pytest.raises(ProgramError) as err:
        parse_program(text)
    assert str(err.value) == message


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", [1e300, math.inf, math.nan])
def test_huge_table_entries_raise_only_the_program_error(entry):
    program = SwitchProgram(num_data_qubits=1)
    program.matrices["k"] = np.diag(np.full(2, entry, dtype=complex))
    program.instructions = (ApplyLocal("k", (0,)),)
    for run in (validate_program, serialize_program):
        with pytest.raises(ProgramError, match="matrix 'k' is not unitary"):
            run(program)


# the table's fault, named before a field fault of an instruction: a document
# with a non-unitary "m0", and the same program built by hand
TABLE_FAULT_CASES = [
    pytest.param('{"op": "apply_local", "matrix": "m0", "qubits": [true]}',
                 (ApplyLocal("m0", (True,)),), id="bool_qubit"),
    pytest.param('{"op": "alloc_ancilla", "ancilla": "a0"}, '
                 '{"op": "measure_ancilla", "theta": 1' + '0' * 400 + ', '
                 '"ancilla": "a0", "result": "m0"}, {"op": "discard", "ancilla": "a0"}',
                 (AllocAncilla("a0"), MeasureAncilla(10 ** 400, "a0", "m0"),
                  Discard("a0")), id="theta_beyond_float_range"),
]


@pytest.mark.parametrize("records,instructions", TABLE_FAULT_CASES)
def test_parse_validate_and_serialize_name_the_same_first_fault(records, instructions):
    text = ('{"num_data_qubits": 1, "matrices": {"m0": [[2, 0], [0, 0], [0, 0], '
            '[2, 0]]}, "instructions": [' + records + ']}')
    program = SwitchProgram(num_data_qubits=1,
                            matrices={"m0": 2 * np.eye(2, dtype=complex)},
                            instructions=instructions)
    for run in (lambda p: parse_program(text), validate_program, serialize_program):
        with pytest.raises(ProgramError) as err:
            run(program)
        assert str(err.value) == "matrix 'm0' is not unitary within 1e-10"


def test_every_entry_point_refuses_an_instruction_subclass():
    # only the instruction set's own classes have a tag to serialize
    class MyLocal(ApplyLocal):
        pass

    program = SwitchProgram(num_data_qubits=1)
    inst = MyLocal(program.add_matrix(H), (0,))
    program.instructions = (inst,)
    for run in (validate_program, serialize_program,
                lambda p: simulate_program(p, basis_state(1, 0), seed=0),
                lambda p: check_equivalence(parse_circuit("qubits 1\nh 0\n"), p,
                                            trials=1)):
        with pytest.raises(ProgramError) as err:
            run(program)
        assert str(err.value) == f"unknown instruction {inst!r}"


def test_every_entry_point_refuses_a_table_id_that_is_not_a_string():
    program = SwitchProgram(num_data_qubits=1)
    program.instructions = (ApplyLocal(program.add_matrix(H), (0,)),)
    program.matrices[1] = X
    for run in (validate_program, serialize_program,
                lambda p: simulate_program(p, basis_state(1, 0), seed=0),
                lambda p: check_equivalence(parse_circuit("qubits 1\nh 0\n"), p,
                                            trials=1)):
        with pytest.raises(ProgramError) as err:
            run(program)
        assert str(err.value) == "matrix id must be a string, got 1"
