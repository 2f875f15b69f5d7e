"""Switch programs: the lowered instruction set, serialization, simulation.

A program acts on ``num_data_qubits`` data qubits plus short-lived ancillas.
Each ancilla is appended as the last qubit when allocated, measured in a
tunable basis (which removes it), and then discarded, so the final state is
purely on the data qubits. Matrices live in a content-addressed table so
repeated gates share entries.

The serialized form is JSON: ``num_data_qubits``, ``matrices`` mapping id to
a row-major list of [re, im] pairs (17 significant digits), and tagged
``instructions`` records. ``OPS`` maps each record's ``op`` tag to its
instruction dataclass; the record's other keys are that dataclass's fields
in declaration order, with tuples written as lists.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .jsonio import dumps, format_float
from .linalg import PLUS, apply_matrix, require_square, state_num_qubits
from .switch import measure_ancilla, switch_unitary


class ProgramError(ValueError):
    """Structural or runtime violation of the program contract."""


@dataclass(frozen=True)
class AllocAncilla:
    ancilla: str
    state: str = "plus"


@dataclass(frozen=True)
class ApplyLocal:
    matrix: str
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class SwitchApply:
    gate_a: str
    gate_b: str
    qubits: tuple[int, ...]
    ancilla: str


@dataclass(frozen=True)
class MeasureAncilla:
    theta: float
    ancilla: str
    result: str


@dataclass(frozen=True)
class CondApply:
    result: str
    outcome: str
    matrix: str
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class Discard:
    ancilla: str


ProgramInstruction = (AllocAncilla | ApplyLocal | SwitchApply | MeasureAncilla
                      | CondApply | Discard)

# the instruction set: serialized tag -> dataclass
OPS: dict[str, type] = {
    "alloc_ancilla": AllocAncilla,
    "apply_local": ApplyLocal,
    "switch_apply": SwitchApply,
    "measure_ancilla": MeasureAncilla,
    "cond_apply": CondApply,
    "discard": Discard,
}
_TAGS = {cls: tag for tag, cls in OPS.items()}
_FIELDS = {cls: fields(cls) for cls in OPS.values()}


def matrix_entries(m: np.ndarray) -> list[list[float]]:
    """Row-major [re, im] pairs of a matrix."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(m).reshape(-1)]


def matrix_id(m: np.ndarray) -> str:
    """Content hash of a matrix at serialization precision."""
    text = "|".join(f"{format_float(re)},{format_float(im)}"
                    for re, im in matrix_entries(m))
    return "m" + hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class SwitchProgram:
    num_data_qubits: int
    matrices: dict[str, np.ndarray] = field(default_factory=dict)
    instructions: tuple[ProgramInstruction, ...] = ()

    def add_matrix(self, m: np.ndarray) -> str:
        """Intern a matrix in the content-addressed table; returns its id."""
        m = require_square(np.asarray(m, dtype=complex))
        key = matrix_id(m)
        self.matrices.setdefault(key, m)
        return key


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Final data-qubit state plus (label, outcome, probability) records."""

    final_state: np.ndarray
    measurement_record: tuple[tuple[str, str, float], ...]
    seed: int | None


def validate_program(program: SwitchProgram) -> None:
    """Check the static contract; raises ProgramError on violation.

    Ancillas are allocated before use and discarded after their last use;
    measurements precede any conditional referencing their result; matrix
    references resolve at matching dimensions.
    """
    n = program.num_data_qubits
    live: set[str] = set()
    measured: set[str] = set()
    done: set[str] = set()
    results: set[str] = set()

    def check_matrix(key: str, qubits, what: str) -> None:
        if key not in program.matrices:
            raise ProgramError(f"{what} references unknown matrix {key!r}")
        dim = program.matrices[key].shape[0]
        if dim != 2 ** len(qubits):
            raise ProgramError(f"{what} matrix {key!r} has dim {dim}, "
                               f"expected {2 ** len(qubits)}")
        if len(set(qubits)) != len(qubits):
            raise ProgramError(f"{what} qubits must be distinct, got {qubits}")
        if any(q < 0 or q >= n for q in qubits):
            raise ProgramError(f"{what} qubit out of range for {n} data qubits")

    def check_ancilla(label: str, want_measured: bool, what: str) -> None:
        if label in done:
            raise ProgramError(f"{what} uses discarded ancilla {label!r}")
        if label not in live:
            raise ProgramError(f"{what} uses unallocated ancilla {label!r}")
        if not want_measured and label in measured:
            raise ProgramError(f"{what} uses already measured ancilla {label!r}")
        if want_measured and label not in measured:
            raise ProgramError(f"{what} needs ancilla {label!r} measured first")

    for inst in program.instructions:
        if isinstance(inst, AllocAncilla):
            if inst.state != "plus":
                raise ProgramError(f"unsupported ancilla state {inst.state!r}")
            if inst.ancilla in live or inst.ancilla in done:
                raise ProgramError(f"ancilla {inst.ancilla!r} allocated twice")
            live.add(inst.ancilla)
        elif isinstance(inst, ApplyLocal):
            check_matrix(inst.matrix, inst.qubits, "apply_local")
        elif isinstance(inst, SwitchApply):
            check_matrix(inst.gate_a, inst.qubits, "switch_apply")
            check_matrix(inst.gate_b, inst.qubits, "switch_apply")
            check_ancilla(inst.ancilla, False, "switch_apply")
        elif isinstance(inst, MeasureAncilla):
            check_ancilla(inst.ancilla, False, "measure_ancilla")
            if inst.result in results:
                raise ProgramError(f"result label {inst.result!r} reused")
            results.add(inst.result)
            measured.add(inst.ancilla)
        elif isinstance(inst, CondApply):
            if inst.outcome not in ("plus", "minus"):
                raise ProgramError(f"unknown outcome {inst.outcome!r}")
            if inst.result not in results:
                raise ProgramError(f"cond_apply references unmeasured result "
                                   f"{inst.result!r}")
            check_matrix(inst.matrix, inst.qubits, "cond_apply")
        elif isinstance(inst, Discard):
            check_ancilla(inst.ancilla, True, "discard")
            live.remove(inst.ancilla)
            done.add(inst.ancilla)
        else:
            raise ProgramError(f"unknown instruction {inst!r}")
    if live:
        raise ProgramError(f"ancillas never discarded: {sorted(live)}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _record(inst: ProgramInstruction) -> dict:
    if type(inst) not in _TAGS:
        raise ProgramError(f"unknown instruction {inst!r}")
    # a dataclass instance's __dict__ holds its fields in declaration order
    record = {"op": _TAGS[type(inst)], **vars(inst)}
    if "qubits" in record:
        record["qubits"] = list(record["qubits"])
    return record


def program_document(program: SwitchProgram) -> dict:
    """Plain-data document for a program (dict of JSON-compatible values)."""
    return {
        "num_data_qubits": program.num_data_qubits,
        "matrices": {key: matrix_entries(m)
                     for key, m in sorted(program.matrices.items())},
        "instructions": [_record(inst) for inst in program.instructions],
    }


def serialize_program(program: SwitchProgram) -> str:
    """Serialize to deterministic JSON text."""
    validate_program(program)
    return dumps(program_document(program))


def _matrix_from_entries(entries, key: str) -> np.ndarray:
    dim = math.isqrt(len(entries))
    if dim * dim != len(entries):
        raise ProgramError(f"matrix {key!r} has {len(entries)} entries, not square")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(dim, dim)


def _coerce(values: dict) -> dict:
    """Convert and check an instruction's qubits and angle where they enter."""
    if "qubits" in values:
        qubits = tuple(values["qubits"])
        if not all(type(q) is int for q in qubits):
            raise ProgramError(f"qubit indices must be integers, got {qubits}")
        values["qubits"] = qubits
    if "theta" in values:
        theta = float(values["theta"])
        if not math.isfinite(theta):
            raise ProgramError(f"measurement angle must be finite, got {theta}")
        values["theta"] = theta
    return values


def parse_program(text: str) -> SwitchProgram:
    """Parse serialized JSON back into a validated SwitchProgram."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ProgramError(f"invalid program JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ProgramError("program document must be a JSON object")
    try:
        num_data_qubits = int(doc["num_data_qubits"])
        matrices = {key: _matrix_from_entries(entries, key)
                    for key, entries in doc["matrices"].items()}
        instructions: list[ProgramInstruction] = []
        for record in doc["instructions"]:
            op = record["op"]
            if op not in OPS:
                raise ProgramError(f"unknown instruction op {op!r}")
            cls = OPS[op]
            instructions.append(cls(**_coerce({
                f.name: record[f.name] for f in _FIELDS[cls]
                if f.name in record or f.default is MISSING})))
    except (KeyError, TypeError, ValueError) as err:
        if isinstance(err, ProgramError):
            raise
        raise ProgramError(f"malformed program document: {err}") from None
    program = SwitchProgram(num_data_qubits=num_data_qubits, matrices=matrices,
                            instructions=tuple(instructions))
    validate_program(program)
    return program


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def simulate_program(program: SwitchProgram, input_state: np.ndarray,
                     seed: int | None = None,
                     forced=None) -> SimulationTrace:
    """Run a program on a data-qubit input state.

    Measurements sample from the exact branch probabilities with a generator
    seeded by ``seed``; ``forced`` (a branch name, or a mapping from result
    label to branch name) pins outcomes instead, in which case the recorded
    probability is still the true probability of the forced branch.
    """
    validate_program(program)
    state = np.asarray(input_state, dtype=complex).copy()
    if state_num_qubits(state) != program.num_data_qubits:
        raise ProgramError(f"input has {state_num_qubits(state)} qubits, "
                           f"program needs {program.num_data_qubits}")
    rng = np.random.default_rng(seed)
    positions: dict[str, int] = {}
    total = program.num_data_qubits
    outcomes: dict[str, str] = {}
    record: list[tuple[str, str, float]] = []

    for inst in program.instructions:
        if isinstance(inst, AllocAncilla):
            state = np.kron(state, PLUS)
            positions[inst.ancilla] = total
            total += 1
        elif isinstance(inst, ApplyLocal):
            state = apply_matrix(state, program.matrices[inst.matrix], inst.qubits)
        elif isinstance(inst, SwitchApply):
            joint = switch_unitary(program.matrices[inst.gate_a],
                                   program.matrices[inst.gate_b])
            state = apply_matrix(state, joint.matrix,
                                 (*inst.qubits, positions[inst.ancilla]))
        elif isinstance(inst, MeasureAncilla):
            pos = positions.pop(inst.ancilla)
            if pos != total - 1:
                psi = state.reshape([2] * total)
                state = np.moveaxis(psi, pos, total - 1).reshape(-1)
                for label in positions:
                    if positions[label] > pos:
                        positions[label] -= 1
            plus, minus = measure_ancilla(state, inst.theta)
            if forced is None:
                name = "plus" if rng.random() < plus.probability else "minus"
            elif isinstance(forced, str):
                name = forced
            else:
                name = forced[inst.result]
            if name not in ("plus", "minus"):
                raise ProgramError(f"unknown forced outcome {name!r}")
            picked = plus if name == "plus" else minus
            if picked.post_state is None:
                raise ProgramError(f"branch {name!r} of {inst.result!r} has "
                                   f"probability 0")
            state = picked.post_state
            total -= 1
            outcomes[inst.result] = name
            record.append((inst.result, name, picked.probability))
        elif isinstance(inst, CondApply):
            if outcomes[inst.result] == inst.outcome:
                state = apply_matrix(state, program.matrices[inst.matrix],
                                     inst.qubits)
        elif isinstance(inst, Discard):
            pass  # state change already happened at measurement
    return SimulationTrace(final_state=state, measurement_record=tuple(record),
                           seed=seed)
