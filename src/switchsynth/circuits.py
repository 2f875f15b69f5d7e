"""Tiny gate-circuit IR with a line-oriented text format.

Format: a ``qubits N`` header (N at most ``MAX_QUBITS``), then one gate per
line as ``name operand... key=value...`` with angles in radians and ``#``
comments.

    qubits 2
    h 0
    cnot 0 1            # controlled gates list control first
    cu 0 1 alpha=0.5 theta=1.0 nx=1.0 ny=0.0 nz=0.0

Parsing and printing round-trip: parse(print(parse(text))) == parse(text).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    MAX_QUBITS,
    UNIT_VECTOR_ATOL,
    H,
    X,
    Y,
    Z,
    apply_matrix,
    rotation,
    rotation_x,
    rotation_y,
    rotation_z,
    state_num_qubits,
)
from .synthesis import barenco_matrix, cu_matrix, preset, preset_barenco, ControlledGateSpec

CNOT_MATRIX = np.array([[1, 0, 0, 0],
                        [0, 1, 0, 0],
                        [0, 0, 0, 1],
                        [0, 0, 1, 0]], dtype=complex)
CZ_MATRIX = np.diag([1, 1, 1, -1]).astype(complex)


@dataclass(frozen=True)
class Gate:
    """One gate of the circuit language.

    ``matrix`` and ``spec`` take the parameters as a name -> value dict;
    ``spec`` (the CU target the compiler synthesizes) is set only for
    controlled gates, whose control is the first operand.
    """

    arity: int
    params: tuple[str, ...]
    matrix: Callable[[dict[str, float]], np.ndarray]
    spec: Callable[[dict[str, float]], ControlledGateSpec] | None = None


def _cu_spec(p: dict[str, float]) -> ControlledGateSpec:
    return ControlledGateSpec(alpha=p["alpha"], theta=p["theta"],
                              axis=(p["nx"], p["ny"], p["nz"]))


# the gate set: name -> arity, parameter names in canonical order, matrix, spec
GATES: dict[str, Gate] = {
    "x": Gate(1, (), lambda p: X.copy()),
    "y": Gate(1, (), lambda p: Y.copy()),
    "z": Gate(1, (), lambda p: Z.copy()),
    "h": Gate(1, (), lambda p: H.copy()),
    "rx": Gate(1, ("theta",), lambda p: rotation_x(p["theta"])),
    "ry": Gate(1, ("theta",), lambda p: rotation_y(p["theta"])),
    "rz": Gate(1, ("theta",), lambda p: rotation_z(p["theta"])),
    "rn": Gate(1, ("theta", "nx", "ny", "nz"),
               lambda p: rotation((p["nx"], p["ny"], p["nz"]), p["theta"])),
    "cnot": Gate(2, (), lambda p: CNOT_MATRIX.copy(), lambda p: preset("cnot")),
    "cz": Gate(2, (), lambda p: CZ_MATRIX.copy(), lambda p: preset("cz")),
    "cu": Gate(2, ("alpha", "theta", "nx", "ny", "nz"),
               lambda p: cu_matrix(_cu_spec(p)), _cu_spec),
    "barenco": Gate(2, ("alpha", "phi", "theta"),
                    lambda p: barenco_matrix(p["alpha"], p["phi"], p["theta"]),
                    lambda p: preset_barenco(p["alpha"], p["phi"], p["theta"])),
}

CONTROLLED_GATES = tuple(name for name, gate in GATES.items() if gate.spec is not None)

# ASCII digits only: ``\d`` alone also matches other scripts' digits
_INT_RE = re.compile(r"^\d+$", re.ASCII)
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$", re.ASCII)

# hand-typed axes are accepted when this close to unit length, then snapped
AXIS_NORM_ATOL = 1e-6


class CircuitParseError(ValueError):
    """Parse failure with 1-based line and column of the offending token."""

    def __init__(self, reason: str, line: int, column: int):
        super().__init__(f"{reason}, line {line}, column {column}")
        self.reason = reason
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Instruction:
    """One gate application; params is a (name, value) tuple in canonical order."""

    gate: str
    qubits: tuple[int, ...]
    params: tuple[tuple[str, float], ...] = ()

    def param(self, name: str) -> float:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    instructions: tuple[Instruction, ...]


def _tokens_with_columns(line: str) -> list[tuple[str, int]]:
    body = line.split("#", 1)[0]
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", body)]


def _snap_axis(values: dict[str, float], line: int, column: int) -> None:
    axis = np.array([values["nx"], values["ny"], values["nz"]])
    norm = np.linalg.norm(axis)
    if abs(norm - 1.0) > AXIS_NORM_ATOL:
        raise CircuitParseError(f"axis (nx, ny, nz) must be unit length, got |n| = {norm}",
                                line, column)
    if abs(norm - 1.0) > UNIT_VECTOR_ATOL:  # keep reparsing a printed circuit a fixed point
        axis = axis / norm
        values["nx"], values["ny"], values["nz"] = (float(v) for v in axis)


def parse_circuit(text: str) -> Circuit:
    """Parse the text format; raises CircuitParseError with location on failure."""
    num_qubits = None
    header_seen = False
    instructions: list[Instruction] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokens_with_columns(raw)
        if not tokens:
            continue

        if not header_seen:
            word, col = tokens[0]
            if word != "qubits":
                raise CircuitParseError(f"expected 'qubits' header, got {word!r}",
                                        line_no, col)
            if len(tokens) != 2:
                raise CircuitParseError("header must be 'qubits N'", line_no, col)
            count, ccol = tokens[1]
            if not _INT_RE.match(count):
                raise CircuitParseError(f"malformed qubit count {count!r}", line_no, ccol)
            digits = count.lstrip("0") or "0"
            # by length first: int() refuses more than 4,300 digits
            if len(digits) > len(str(MAX_QUBITS)) or int(digits) > MAX_QUBITS:
                raise CircuitParseError(f"qubit count {digits} exceeds the "
                                        f"maximum of {MAX_QUBITS}", line_no, ccol)
            num_qubits = int(digits)
            header_seen = True
            continue

        name, name_col = tokens[0]
        if name not in GATES:
            raise CircuitParseError(f"unknown gate {name!r}", line_no, name_col)
        arity, param_names = GATES[name].arity, GATES[name].params

        if len(tokens) - 1 < arity:
            raise CircuitParseError(
                f"{name} takes {arity} qubit operand(s), got {len(tokens) - 1}",
                line_no, name_col)
        qubits = []
        for token, col in tokens[1:1 + arity]:
            if not _INT_RE.match(token):
                raise CircuitParseError(f"malformed qubit index {token!r}", line_no, col)
            digits = token.lstrip("0") or "0"
            if len(digits) > len(str(num_qubits)) or int(digits) >= num_qubits:
                raise CircuitParseError(f"qubit {digits} out of range", line_no, col)
            qubits.append(int(digits))
        if len(set(qubits)) != len(qubits):
            raise CircuitParseError("operands must be distinct qubits",
                                    line_no, name_col)

        values: dict[str, float] = {}
        for token, col in tokens[1 + arity:]:
            if "=" not in token:
                raise CircuitParseError(
                    f"expected name=value parameter, got {token!r}", line_no, col)
            key, _, raw_value = token.partition("=")
            if key not in param_names:
                raise CircuitParseError(f"unknown parameter {key!r} for {name}",
                                        line_no, col)
            if key in values:
                raise CircuitParseError(f"duplicate parameter {key!r}", line_no, col)
            if not _FLOAT_RE.match(raw_value):
                raise CircuitParseError(f"malformed number {raw_value!r}", line_no, col)
            values[key] = float(raw_value)
            if not math.isfinite(values[key]):  # an exponent that overflows
                raise CircuitParseError(f"number {raw_value!r} is not finite",
                                        line_no, col)
        for key in param_names:
            if key not in values:
                raise CircuitParseError(f"missing parameter {key!r} for {name}",
                                        line_no, name_col)

        if "nx" in param_names:
            _snap_axis(values, line_no, name_col)

        instructions.append(Instruction(
            gate=name,
            qubits=tuple(qubits),
            params=tuple((key, values[key]) for key in param_names),
        ))

    if not header_seen:
        raise CircuitParseError("missing 'qubits' header", 1, 1)
    return Circuit(num_qubits=num_qubits, instructions=tuple(instructions))


def format_circuit(circuit: Circuit) -> str:
    """Render a circuit back to text; parsing the result is a fixed point."""
    lines = [f"qubits {circuit.num_qubits}"]
    for inst in circuit.instructions:
        parts = [inst.gate, *(str(q) for q in inst.qubits)]
        parts += [f"{key}={value!r}" for key, value in inst.params]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def controlled_gate_spec(inst: Instruction) -> ControlledGateSpec:
    """Target spec of a controlled-gate instruction."""
    gate = GATES.get(inst.gate)
    if gate is None or gate.spec is None:
        raise ValueError(f"{inst.gate} is not a controlled gate")
    return gate.spec(dict(inst.params))


def instruction_matrix(inst: Instruction) -> np.ndarray:
    """Direct matrix of one instruction (2x2 or 4x4, control first)."""
    if inst.gate not in GATES:
        raise ValueError(f"unknown gate {inst.gate!r}")
    return GATES[inst.gate].matrix(dict(inst.params))


def simulate_circuit(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Reference state-vector semantics: apply each gate's direct matrix."""
    state = np.asarray(state, dtype=complex)
    if state_num_qubits(state) != circuit.num_qubits:
        raise ValueError(f"state has {state_num_qubits(state)} qubits, "
                         f"circuit needs {circuit.num_qubits}")
    for inst in circuit.instructions:
        state = apply_matrix(state, instruction_matrix(inst), inst.qubits)
    return state
