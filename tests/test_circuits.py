import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from switchsynth import circuits
from switchsynth.circuits import (
    CNOT_MATRIX,
    CONTROLLED_GATES,
    CZ_MATRIX,
    GATES,
    Circuit,
    CircuitParseError,
    Instruction,
    controlled_gate_spec,
    format_circuit,
    instruction_matrix,
    parse_circuit,
    simulate_circuit,
)
from switchsynth.linalg import MAX_QUBITS, H, X, Y, Z, basis_state, rotation
from switchsynth.lowering import lower
from switchsynth.synthesis import barenco_matrix, cu_matrix, preset

BELL_TEXT = """\
qubits 2
h 0
cnot 0 1
"""


def test_parse_basic_circuit():
    circuit = parse_circuit(BELL_TEXT)
    assert circuit.num_qubits == 2
    assert [inst.gate for inst in circuit.instructions] == ["h", "cnot"]
    assert circuit.instructions[0].qubits == (0,)
    assert circuit.instructions[1].qubits == (0, 1)


def test_parse_skips_comments_and_blanks():
    text = """
    # a comment line
    qubits 2

    h 0   # trailing comment naming cnot 1 does not parse
    """
    circuit = parse_circuit(text)
    assert len(circuit.instructions) == 1
    assert circuit.instructions[0].gate == "h"


def test_parse_parameters_in_canonical_order():
    text = "qubits 2\ncu 0 1 nz=0.0 theta=1.0 alpha=0.5 nx=1.0 ny=0.0\n"
    inst = parse_circuit(text).instructions[0]
    assert [key for key, _ in inst.params] == ["alpha", "theta", "nx", "ny", "nz"]
    assert dict(inst.params)["alpha"] == 0.5
    assert dict(inst.params)["theta"] == 1.0


def test_parse_snaps_almost_unit_axis():
    text = "qubits 2\ncu 0 1 alpha=0.1 theta=0.2 nx=1.0000001 ny=0.0 nz=0.0\n"
    inst = parse_circuit(text).instructions[0]
    assert dict(inst.params)["nx"] == pytest.approx(1.0, abs=1e-15)


def test_format_parse_round_trip():
    text = ("qubits 3\n"
            "h 0\n"
            "rx 1 theta=0.5\n"
            "rn 2 theta=1.25 nx=0.6 ny=0.8 nz=0.0\n"
            "cu 0 2 alpha=0.5 theta=1.0 nx=0.0 ny=1.0 nz=0.0\n"
            "barenco 1 2 alpha=0.3 phi=0.7 theta=2.1\n"
            "cz 2 0\n")
    first = parse_circuit(text)
    rendered = format_circuit(first)
    second = parse_circuit(rendered)
    assert second == first
    assert format_circuit(second) == rendered


@pytest.mark.parametrize("text,fragment,line,column", [
    ("h 0\n", "expected 'qubits' header", 1, 1),
    ("qubits\n", "header must be 'qubits N'", 1, 1),
    ("qubits two\n", "malformed qubit count", 1, 8),
    ("", "missing 'qubits' header", 1, 1),
    ("qubits 2\nfoo 0\n", "unknown gate 'foo'", 2, 1),
    ("qubits 2\ncnot 0\n", "takes 2 qubit operand(s)", 2, 1),
    ("qubits 2\n  h x\n", "malformed qubit index", 2, 5),
    ("qubits 2\nh 5\n", "qubit 5 out of range", 2, 3),
    ("qubits 2\ncnot 1 1\n", "operands must be distinct", 2, 1),
    ("qubits 2\nrx 0 0.5\n", "expected name=value", 2, 6),
    ("qubits 2\nrx 0 phi=1.0\n", "unknown parameter 'phi'", 2, 6),
    ("qubits 2\nrx 0 theta=1 theta=2\n", "duplicate parameter", 2, 14),
    ("qubits 2\nrx 0 theta=abc\n", "malformed number", 2, 6),
    ("qubits 2\nrx 0\n", "missing parameter 'theta'", 2, 1),
    ("qubits 2\ncu 0 1 alpha=1 theta=1 nx=1 ny=1 nz=0\n",
     "must be unit length", 2, 1),
    ("# only comments\n\n", "missing 'qubits' header", 1, 1),
    ("qubits 2\nh 0\n\n  qubits 2\n", "unknown gate 'qubits'", 4, 3),
    ("qubits 2\r\n\r\nh 7\r\n", "qubit 7 out of range", 3, 3),
])
def test_parse_errors_carry_location(text, fragment, line, column):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert fragment in str(err.value)
    assert f"line {line}, column {column}" in str(err.value)
    assert err.value.line == line
    assert err.value.column == column


@pytest.mark.parametrize("count", [MAX_QUBITS + 1, 10 ** 12])
def test_parse_circuit_caps_the_qubit_count(count):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(f"qubits {count}\nh 0\n")
    assert (f"qubit count {count} exceeds the maximum of {MAX_QUBITS}"
            in str(err.value))
    assert (err.value.line, err.value.column) == (1, 8)


HUGE = "9" * 5000  # beyond int()'s 4,300-digit limit


@pytest.mark.parametrize("text,fragment,line,column", [
    (f"qubits {HUGE}\nh 0\n", f"qubit count {HUGE} exceeds the maximum", 1, 8),
    (f"qubits 2\ncnot 0 {HUGE}\n", f"qubit {HUGE} out of range", 2, 8),
], ids=["header", "operand"])
def test_parse_circuit_rejects_oversized_integers(text, fragment, line, column):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert fragment in str(err.value)
    assert (err.value.line, err.value.column) == (line, column)


def test_parse_circuit_reads_leading_zeros_of_any_length():
    zeros = "0" * 5000
    circuit = parse_circuit(f"qubits {zeros}2\ncnot {zeros} {zeros}1\n")
    assert circuit == parse_circuit("qubits 2\ncnot 0 1\n")


def test_instruction_matrices_fixed_gates():
    assert_allclose(instruction_matrix(Instruction("x", (0,))), X, atol=0)
    assert_allclose(instruction_matrix(Instruction("y", (0,))), Y, atol=0)
    assert_allclose(instruction_matrix(Instruction("z", (0,))), Z, atol=0)
    assert_allclose(instruction_matrix(Instruction("h", (0,))), H, atol=0)
    assert_allclose(instruction_matrix(Instruction("cnot", (0, 1))),
                    CNOT_MATRIX, atol=0)
    assert_allclose(instruction_matrix(Instruction("cz", (0, 1))),
                    CZ_MATRIX, atol=0)


def test_instruction_matrices_rotations():
    inst = Instruction("rx", (0,), (("theta", math.pi),))
    assert_allclose(instruction_matrix(inst), -1j * X, atol=1e-15)
    inst = Instruction("rn", (0,), (("theta", 0.7), ("nx", 0.0),
                                    ("ny", 0.6), ("nz", 0.8)))
    assert_allclose(instruction_matrix(inst), rotation((0.0, 0.6, 0.8), 0.7),
                    atol=1e-15)


def test_instruction_matrices_controlled_families():
    inst = Instruction("cu", (0, 1), (("alpha", 0.4), ("theta", 1.1),
                                      ("nx", 0.0), ("ny", 0.0), ("nz", 1.0)))
    assert_allclose(instruction_matrix(inst),
                    cu_matrix(controlled_gate_spec(inst)), atol=0)
    inst = Instruction("barenco", (0, 1), (("alpha", 0.2), ("phi", 0.9),
                                           ("theta", 1.7)))
    assert_allclose(instruction_matrix(inst), barenco_matrix(0.2, 0.9, 1.7),
                    atol=0)


def test_controlled_gate_spec_presets():
    assert controlled_gate_spec(Instruction("cnot", (0, 1))) == preset("cnot")
    assert controlled_gate_spec(Instruction("cz", (0, 1))) == preset("cz")
    with pytest.raises(ValueError):
        controlled_gate_spec(Instruction("h", (0,)))


def test_simulate_bell_circuit():
    circuit = parse_circuit(BELL_TEXT)
    out = simulate_circuit(circuit, basis_state(2, 0))
    assert_allclose(out, [np.sqrt(0.5), 0.0, 0.0, np.sqrt(0.5)], atol=1e-15)


def test_simulate_cnot_basis_states():
    circuit = parse_circuit("qubits 2\ncnot 0 1\n")
    # qubit 0 is the most significant bit, so basis 2 is |10>
    assert_allclose(simulate_circuit(circuit, basis_state(2, 2)),
                    basis_state(2, 3), atol=0)
    assert_allclose(simulate_circuit(circuit, basis_state(2, 1)),
                    basis_state(2, 1), atol=0)


def test_simulate_reversed_operands():
    circuit = parse_circuit("qubits 2\ncnot 1 0\n")
    assert_allclose(simulate_circuit(circuit, basis_state(2, 1)),
                    basis_state(2, 3), atol=0)


def test_simulate_rejects_wrong_state_size():
    circuit = parse_circuit(BELL_TEXT)
    with pytest.raises(ValueError):
        simulate_circuit(circuit, basis_state(3, 0))


def test_an_instruction_naming_an_unknown_gate_is_refused_by_name():
    inst = Instruction("foo", (0,))
    circuit = Circuit(1, (inst,))
    for call in (lambda: instruction_matrix(inst), lambda: lower(circuit),
                 lambda: simulate_circuit(circuit, basis_state(1, 0))):
        with pytest.raises(ValueError, match="^unknown gate 'foo'$"):
            call()


# one valid value per parameter name in the gate table (the axis is unit)
SAMPLE_PARAMS = {"alpha": 0.3, "theta": 0.8, "phi": 0.5,
                 "nx": 0.0, "ny": 0.6, "nz": 0.8}


def sample_instruction(name):
    gate = GATES[name]
    return Instruction(name, tuple(range(gate.arity)),
                       tuple((key, SAMPLE_PARAMS[key]) for key in gate.params))


def test_controlled_gates_are_the_table_entries_with_a_spec():
    assert CONTROLLED_GATES == ("cnot", "cz", "cu", "barenco")
    assert all(GATES[name].arity == 2 for name in CONTROLLED_GATES)


@pytest.mark.parametrize("name", list(GATES))
def test_gate_table_matrix_is_unitary(name):
    m = instruction_matrix(sample_instruction(name))
    assert m.shape == (2 ** GATES[name].arity,) * 2
    assert_allclose(m.conj().T @ m, np.eye(len(m)), atol=1e-12)


@pytest.mark.parametrize("name", list(GATES))
def test_gate_table_entry_round_trips_through_text(name):
    circuit = Circuit(num_qubits=2, instructions=(sample_instruction(name),))
    assert parse_circuit(format_circuit(circuit)) == circuit


@pytest.mark.parametrize("name", CONTROLLED_GATES)
def test_gate_table_matrix_equals_spec_including_phase(name):
    inst = sample_instruction(name)
    assert_allclose(instruction_matrix(inst),
                    cu_matrix(controlled_gate_spec(inst)), atol=1e-12)


@pytest.mark.parametrize("text,column", [
    ("qubits 2\nrx 0 theta=1e999\n", 6),
    ("qubits 2\ncu 0 1 alpha=-1e999 theta=1.0 nx=1 ny=0 nz=0\n", 8),
    ("qubits 2\nrn 1 theta=0.5 nx=1 ny=0 nz=1e400\n", 26),
], ids=["theta", "alpha", "axis"])
def test_parse_circuit_rejects_overflowing_numbers(text, column):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert "is not finite" in str(err.value)
    assert (err.value.line, err.value.column) == (2, column)


# Arabic-Indic and fullwidth digits: ``int`` and ``float`` read them, the
# circuit language does not
@pytest.mark.parametrize("text,fragment,line,column", [
    ("qubits \u0663\nh 0\n", "malformed qubit count '\u0663'", 1, 8),
    ("qubits 3\nh \u0662\n", "malformed qubit index '\u0662'", 2, 3),
    ("qubits 3\ncnot 0 \uff11\n", "malformed qubit index '\uff11'", 2, 8),
    ("qubits 3\nrx 0 theta=\u0661.\u0665\n", "malformed number '\u0661.\u0665'", 2, 6),
    ("qubits 3\nrx 0 theta=1e\u0663\n", "malformed number '1e\u0663'", 2, 6),
], ids=["count", "index", "fullwidth_index", "number", "exponent"])
def test_parse_circuit_reads_ascii_digits_only(text, fragment, line, column):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert fragment in str(err.value)
    assert (err.value.line, err.value.column) == (line, column)


def test_parse_reads_crlf_line_ends():
    text = "# header next\r\n\r\nqubits 2\r\nh 0\r\ncnot 0 1\r\n"
    assert parse_circuit(text) == parse_circuit(BELL_TEXT)


def test_parse_reads_a_header_only_file_as_an_empty_circuit():
    assert parse_circuit("# nothing to do\nqubits 3\n") == Circuit(3, ())
    assert parse_circuit("qubits 0") == Circuit(0, ())


def test_parse_stops_at_a_bad_header_before_reading_later_lines(monkeypatch):
    calls = []
    tokens = circuits._tokens_with_columns

    def counting(line):
        calls.append(line)
        return tokens(line)

    monkeypatch.setattr(circuits, "_tokens_with_columns", counting)
    text = "\n# comment\nqubits x\n" + "h 0\n" * 1000
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert (err.value.reason, err.value.line, err.value.column) == (
        "malformed qubit count 'x'", 3, 8)
    assert len(calls) == 3
