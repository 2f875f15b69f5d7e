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
in declaration order, with tuples written as lists. ``jsonio`` makes a
matrix's id text and its entries, each from one ``%`` format of its floats.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from functools import partial

import numpy as np

from .jsonio import dumps, matrix_text
from .linalg import (
    MAX_QUBITS,
    PLUS,
    UNITARY_ATOL,
    apply_ordered,
    axis_orders,
    is_unitary,
    require_square,
    state_num_qubits,
    tensor,
)
from .switch import branch_functionals, joint_matrix, project_branches


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


# data qubits plus the one ancilla a switch block holds, so a circuit of
# MAX_QUBITS qubits lowers to a program within the cap
MAX_HELD_QUBITS = MAX_QUBITS + 1


def matrix_id(m: np.ndarray) -> str:
    """Content hash of a matrix at serialization precision."""
    return "m" + hashlib.sha256(matrix_text(m).encode()).hexdigest()[:12]


@dataclass
class SwitchProgram:
    num_data_qubits: int
    matrices: dict[str, np.ndarray] = field(default_factory=dict)
    instructions: tuple[ProgramInstruction, ...] = ()
    # (shape, bytes) of each matrix added -> its id, so each is hashed once
    _ids: dict[tuple, str] = field(default_factory=dict, init=False,
                                   repr=False, compare=False)

    def add_matrix(self, m: np.ndarray) -> str:
        """Intern a matrix in the content-addressed table; returns its id."""
        m = require_square(np.asarray(m, dtype=complex))
        content = (m.shape, m.tobytes())
        key = self._ids.get(content)
        if key is None:
            key = matrix_id(m)
            # a parsed table is keyed by its document's ids, unchecked
            held = self.matrices.get(key)
            if held is not None and not np.array_equal(held, m):
                raise ProgramError(f"matrix table holds other content under id {key!r}")
            self._ids[content] = key
        self.matrices.setdefault(key, m)
        return key


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Final data-qubit state plus (label, outcome, probability) records."""

    final_state: np.ndarray
    measurement_record: tuple[tuple[str, str, float], ...]
    seed: int | None


def validate_program(program: SwitchProgram) -> list[tuple]:
    """Check the static contract in one pass; raises ProgramError on violation.

    Ancillas are allocated before use and discarded after their last use;
    measurements precede any conditional referencing their result; matrix
    references resolve at matching dimensions; angles are finite; the data
    qubits plus the ancillas allocated and not yet measured never exceed
    ``MAX_HELD_QUBITS``. Returns each instruction resolved, as ``(inst,
    qubits, total, index)``: the qubits it acts on (a switch's ancilla last,
    a measurement's ancilla alone), the qubit count of the state it acts
    on, and the record index of the measurement it makes or reads, or None.
    """
    n = total = program.num_data_qubits  # total: qubits in the state
    if n > MAX_HELD_QUBITS:
        raise ProgramError(f"program holds {n} data qubits, above the maximum "
                           f"of {MAX_HELD_QUBITS}")
    data_qubits = set(range(n))
    positions: dict[str, int] = {}  # ancilla allocated, not measured -> qubit
    measured: set[str] = set()  # ancillas measured, not yet discarded
    done: set[str] = set()
    results: dict[str, int] = {}  # result label -> index in the record
    resolved: list[tuple] = []

    def check_matrix(key: str, qubits, what: str) -> None:
        if key not in program.matrices:
            raise ProgramError(f"{what} references unknown matrix {key!r}")
        dim, want = program.matrices[key].shape[0], 2 ** len(qubits)
        if dim != want:
            raise ProgramError(f"{what} matrix {key!r} has dim {dim}, "
                               f"expected {want}")
        distinct = set(qubits)
        if len(distinct) != len(qubits):
            raise ProgramError(f"{what} qubits must be distinct, got {qubits}")
        if not distinct <= data_qubits:
            raise ProgramError(f"{what} qubit out of range for {n} data qubits")

    def check_ancilla(label: str, want_measured: bool, what: str) -> None:
        if label in done:
            raise ProgramError(f"{what} uses discarded ancilla {label!r}")
        if label not in positions and label not in measured:
            raise ProgramError(f"{what} uses unallocated ancilla {label!r}")
        if not want_measured and label in measured:
            raise ProgramError(f"{what} uses already measured ancilla {label!r}")
        if want_measured and label not in measured:
            raise ProgramError(f"{what} needs ancilla {label!r} measured first")

    for index, inst in enumerate(program.instructions):
        before, qubits, at = total, (), None
        if isinstance(inst, AllocAncilla):
            if inst.state != "plus":
                raise ProgramError(f"unsupported ancilla state {inst.state!r}")
            if inst.ancilla in positions.keys() | measured | done:
                raise ProgramError(f"ancilla {inst.ancilla!r} allocated twice")
            positions[inst.ancilla] = total
            total += 1
            if total > MAX_HELD_QUBITS:
                raise ProgramError(f"instruction {index} (alloc_ancilla "
                                   f"{inst.ancilla!r}) holds {total} qubits at "
                                   f"once, above the maximum of "
                                   f"{MAX_HELD_QUBITS}")
        elif isinstance(inst, ApplyLocal):
            check_matrix(inst.matrix, inst.qubits, "apply_local")
            qubits = tuple(inst.qubits)
        elif isinstance(inst, SwitchApply):
            check_matrix(inst.gate_a, inst.qubits, "switch_apply")
            check_matrix(inst.gate_b, inst.qubits, "switch_apply")
            check_ancilla(inst.ancilla, False, "switch_apply")
            qubits = (*inst.qubits, positions[inst.ancilla])
        elif isinstance(inst, MeasureAncilla):
            check_ancilla(inst.ancilla, False, "measure_ancilla")
            if inst.result in results:
                raise ProgramError(f"result label {inst.result!r} reused")
            if not math.isfinite(inst.theta):
                raise ProgramError(f"instruction {index} (measure_ancilla "
                                   f"{inst.ancilla!r}): measurement angle must "
                                   f"be finite, got {inst.theta}")
            at = results[inst.result] = len(results)
            measured.add(inst.ancilla)
            pos = positions.pop(inst.ancilla)
            qubits, total = (pos,), total - 1
            for label, later in positions.items():  # the rest close the gap
                if later > pos:
                    positions[label] = later - 1
        elif isinstance(inst, CondApply):
            if inst.outcome not in ("plus", "minus"):
                raise ProgramError(f"unknown outcome {inst.outcome!r}")
            if inst.result not in results:
                raise ProgramError(f"cond_apply references unmeasured result "
                                   f"{inst.result!r}")
            check_matrix(inst.matrix, inst.qubits, "cond_apply")
            qubits, at = tuple(inst.qubits), results[inst.result]
        elif isinstance(inst, Discard):
            check_ancilla(inst.ancilla, True, "discard")
            measured.remove(inst.ancilla)
            done.add(inst.ancilla)
        else:
            raise ProgramError(f"unknown instruction {inst!r}")
        resolved.append((inst, qubits, before, at))
    if positions or measured:
        raise ProgramError(f"ancillas never discarded: "
                           f"{sorted({*positions, *measured})}")
    return resolved


def _require_unitary(matrices: dict[str, np.ndarray]) -> None:
    """ProgramError naming the first id, in order, whose matrix is not unitary."""
    shapes: dict[tuple, list[str]] = {}
    for key, m in matrices.items():
        shapes.setdefault(m.shape, []).append(key)
    unitary = {key: ok for keys in shapes.values() for key, ok in
               zip(keys, is_unitary(np.stack([matrices[key] for key in keys])))}
    for key in matrices:
        if not unitary[key]:
            raise ProgramError(f"matrix {key!r} is not unitary within {UNITARY_ATOL}")


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
    """The document ``dumps`` writes for a program; matrices stay arrays."""
    return {
        "num_data_qubits": program.num_data_qubits,
        "matrices": dict(sorted(program.matrices.items())),
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


def _string(value, name: str) -> str:
    if type(value) is not str:
        raise ProgramError(f"{name} must be a string, got {value!r}")
    return value


def _angle(value, name: str) -> float:
    if type(value) not in (int, float):  # the instruction pass checks finiteness
        raise ProgramError(f"{name} must be a number, got {value!r}")
    return float(value)  # OverflowError for an int beyond float range


def _qubits(value, name: str) -> tuple[int, ...]:
    if type(value) is not list or not all(type(q) is int for q in value):
        raise ProgramError(f"qubit indices must be integers, got {value!r}")
    return tuple(value)


# per op tag: (name, required, check) of each field; the check, one per field
# annotation, takes the JSON value and returns the field's value
_FIELDS = {tag: [(f.name, f.default is MISSING,
                  {"str": _string, "float": _angle, "tuple[int, ...]": _qubits}[f.type])
                 for f in fields(cls)] for tag, cls in OPS.items()}


def parse_program(text: str) -> SwitchProgram:
    """Parse serialized JSON back into a validated SwitchProgram.

    ``num_data_qubits`` must be an integer from 0 to ``MAX_QUBITS``, every
    matrix in the table must be unitary within ``UNITARY_ATOL``, and each
    record field must hold the JSON type of its annotation: a string, a
    number for ``theta``, a list of integers for ``qubits``.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:  # also too many digits or levels
        raise ProgramError(f"invalid program JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ProgramError("program document must be a JSON object")
    try:
        num_data_qubits = doc["num_data_qubits"]
        if type(num_data_qubits) is not int or num_data_qubits < 0:
            raise ProgramError(f"num_data_qubits must be a non-negative "
                               f"integer, got {num_data_qubits!r}")
        if num_data_qubits > MAX_QUBITS:
            raise ProgramError(f"num_data_qubits {num_data_qubits} exceeds the "
                               f"maximum of {MAX_QUBITS}")
        if not isinstance(doc["matrices"], dict):
            raise ProgramError("matrices must be a JSON object")
        matrices = {key: _matrix_from_entries(entries, key)
                    for key, entries in doc["matrices"].items()}
        if not isinstance(doc["instructions"], list):
            raise ProgramError("instructions must be a JSON array")
        instructions: list[ProgramInstruction] = []
        for record in doc["instructions"]:
            if not isinstance(record, dict):
                raise ProgramError(f"instruction record must be a JSON object, "
                                   f"got {record!r}")
            op = record["op"]
            if op not in OPS:
                raise ProgramError(f"unknown instruction op {op!r}")
            instructions.append(OPS[op](**{
                name: check(record[name], f"{op} {name}")
                for name, required, check in _FIELDS[op] if required or name in record}))
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        if isinstance(err, ProgramError):
            raise
        raise ProgramError(f"malformed program document: {err}") from None
    _require_unitary(matrices)
    program = SwitchProgram(num_data_qubits=num_data_qubits, matrices=matrices,
                            instructions=tuple(instructions))
    validate_program(program)
    return program


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------
#
# One executor serves sampled, forced and exhaustive runs. Binding reads the
# instruction pass's output, checks the matrix table with one stacked call per
# size, builds each distinct switch joint once and resolves every axis order
# and branch functional, leaving segments: the updates up to a measurement,
# then that measurement. The walk runs them along the branch tree a level at a
# time: the nodes at one depth are the rows of one (rows, 2^total) stack and
# each step is one numpy call on it; a `cond_apply` updates the rows whose
# recorded outcome matches. At a measurement (of the last qubit, by
# construction) a chooser projects the stack and keeps the followed
# post-measurement states, plus branch first, as the next level's rows, so a
# prefix shared by many branch assignments runs once. Each level is cut into
# chunks of at most max(1, CAP // dim) rows, walked depth first. A sampled or
# forced run is the same walk on one row. Numpy's stacked matmul runs each row
# on the one-state product's kernel and shapes, and every other step acts on
# each row alone, so every leaf is bit-identical to a replay of its branch
# assignment one instruction at a time.

CAP = 1024  # amplitudes per chunk of the walk

_ALL = slice(None)  # a row selection: all rows (_ALL), none (None) or an index array


def _rows(mask: np.ndarray):
    """The row selection of a boolean mask over a stack."""
    if mask.all():
        return _ALL
    return np.flatnonzero(mask) if mask.any() else None


def _local(matrix: np.ndarray, qubits: tuple[int, ...], total: int):
    """``apply_matrix`` on a stack of ``total``-qubit states, laid out now."""
    shape, order, split, inverse = axis_orders(qubits, total, stacked=True)
    return lambda states, took: apply_ordered(states, matrix, shape, order,
                                              split, inverse)


def _alloc(states: np.ndarray, took) -> np.ndarray:
    return tensor(states, PLUS)


def _to_last(pos: int, total: int):
    """Move the ancilla at ``pos`` behind the ``total - 1`` other qubits."""
    shape, order, _, _ = axis_orders((*range(pos), *range(pos + 1, total), pos),
                                     total, stacked=True)
    return lambda states, took: (states.reshape(shape).transpose(order)
                                 .reshape(len(states), -1))


def _conditional(index: int, outcome: str, apply):
    """Run the step ``apply`` on the rows whose measurement ``index`` gave
    ``outcome``."""

    def step(states, took):
        rows = took(index, outcome)
        if rows is None:
            return states
        if rows is _ALL:
            return apply(states, took)
        states = states.copy()
        states[rows] = apply(states[rows], took)
        return states
    return step


def _zero_branch(name: str, label: str) -> ProgramError:
    return ProgramError(f"branch {name!r} of {label!r} has probability 0")


class _Tree:
    """Chooser that follows every branch assignment of a table.

    ``table`` is a boolean (assignments, measurements) array, True for plus,
    with its rows in sorted order ("minus" before "plus"), so the rows that
    share their first ``depth`` branch names are contiguous. A stack's nodes
    are the arrays ``(lo, hi)``: row i's assignments are ``table[lo[i]:hi[i]]``.
    """

    def __init__(self, table: np.ndarray):
        self.table = table
        self.root = (np.zeros(1, dtype=np.intp), np.full(1, len(table)))

    def measure(self, depth: int, label: str, nodes, states, functionals):
        lo, hi = nodes
        minus_before = np.concatenate(([0], np.cumsum(~self.table[:, depth])))
        mid = lo + minus_before[hi] - minus_before[lo]
        plus, minus = mid < hi, lo < mid
        followed = []
        for name, (probability, post), mask in zip(
                ("plus", "minus"), project_branches(states, functionals),
                (plus, minus)):
            rows = _rows(mask)
            if rows is None:
                continue
            if not probability[rows].all():
                raise _zero_branch(name, label)
            followed.append(post[rows])
        return (followed[0] if len(followed) == 1 else np.concatenate(followed),
                (np.concatenate((mid[plus], lo[minus])),
                 np.concatenate((hi[plus], mid[minus]))))

    def took(self, nodes, index: int, outcome: str):
        return _rows(self.table[nodes[0], index] == (outcome == "plus"))


class _Path:
    """Chooser of one row: ``pick(depth, plus_probability)`` names the branch
    at each measurement, and the nodes are the measurement record."""

    root = ()

    def __init__(self, pick):
        self.pick = pick

    def measure(self, depth: int, label: str, record, states, functionals):
        # the one state alone, on numpy's cheaper scalar arithmetic
        plus, minus = project_branches(states[0], functionals)
        name = self.pick(depth, float(plus[0]))
        probability, post = plus if name == "plus" else minus
        if not probability:
            raise _zero_branch(name, label)
        return post[None], record + ((label, name, float(probability)),)

    def took(self, record, index: int, outcome: str):
        return _ALL if record[index][1] == outcome else None


class _BoundProgram:
    """A validated program bound for execution (see the section comment)."""

    def __init__(self, program: SwitchProgram):
        resolved = validate_program(program)
        self.num_data_qubits = program.num_data_qubits
        matrices = {key: np.asarray(m, dtype=complex)
                    for key, m in program.matrices.items()}
        _require_unitary(matrices)  # as parse_program checks its table
        joints: dict[tuple[str, str], np.ndarray] = {}
        self.segments: list[tuple[list, tuple[tuple, str] | None]] = []
        steps: list = []
        for inst, qubits, total, index in resolved:
            if isinstance(inst, AllocAncilla):
                steps.append(_alloc)
            elif isinstance(inst, ApplyLocal):
                steps.append(_local(matrices[inst.matrix], qubits, total))
            elif isinstance(inst, SwitchApply):
                key = (inst.gate_a, inst.gate_b)
                if key not in joints:
                    joints[key] = joint_matrix(matrices[inst.gate_a],
                                               matrices[inst.gate_b])
                steps.append(_local(joints[key], qubits, total))
            elif isinstance(inst, MeasureAncilla):
                if qubits[0] != total - 1:
                    steps.append(_to_last(qubits[0], total))
                self.segments.append(
                    (steps, (branch_functionals(inst.theta), inst.result)))
                steps = []
            elif isinstance(inst, CondApply):
                steps.append(_conditional(index, inst.outcome, _local(
                    matrices[inst.matrix], qubits, total)))
            # Discard: the state already lost the ancilla at its measurement
        self.segments.append((steps, None))
        self.labels = tuple(label for _, (_, label) in self.segments[:-1])

    def walk(self, input_state: np.ndarray, chooser):
        """Yield (states, nodes) for every chunk of leaves reached.

        From ``chooser.root``, ``chooser.measure(depth, label, nodes, states,
        functionals)`` returns the next level's rows and nodes, and
        ``chooser.took(nodes, index, outcome)`` selects the rows whose
        measurement ``index`` gave ``outcome``. An explicit stack of chunks
        leaves depth unbounded by the interpreter's recursion limit.
        """
        state = np.array(input_state, dtype=complex)
        if state_num_qubits(state) != self.num_data_qubits:
            raise ProgramError(f"input has {state_num_qubits(state)} qubits, "
                               f"program needs {self.num_data_qubits}")
        work = [(0, state.reshape(1, -1), chooser.root)]
        while work:
            depth, states, nodes = work.pop()
            steps, measurement = self.segments[depth]
            took = partial(chooser.took, nodes)
            for step in steps:
                states = step(states, took)
            if measurement is None:
                yield states, nodes
                continue
            functionals, label = measurement
            states, nodes = chooser.measure(depth, label, nodes, states,
                                            functionals)
            size = max(1, CAP // states.shape[1])
            if len(states) <= size:
                work.append((depth + 1, states, nodes))
                continue
            # the nodes of a stack of many rows are per-row arrays
            for start in reversed(range(0, len(states), size)):
                chunk = slice(start, start + size)
                work.append((depth + 1, states[chunk],
                             tuple(a[chunk] for a in nodes)))


def _forced_path(forced, labels: tuple[str, ...]) -> list[str]:
    """The branch names ``forced`` pins, in measurement order, as plain str."""
    if isinstance(forced, str):
        forced = dict.fromkeys(labels, forced)
    measured = set(labels)
    for label in forced:
        if label not in measured:
            raise ProgramError(f"forced outcome for result label {label!r}, "
                               f"which the program never measures")
    path = []
    for label in labels:
        if label not in forced:
            raise ProgramError(f"no forced outcome for result label {label!r}")
        if forced[label] not in ("plus", "minus"):
            raise ProgramError(f"unknown forced outcome {forced[label]!r}")
        path.append("plus" if forced[label] == "plus" else "minus")
    return path


def simulate_program(program: SwitchProgram, input_state: np.ndarray,
                     seed: int | None = None,
                     forced=None) -> SimulationTrace:
    """Run a program on a data-qubit input state.

    Measurements sample from the exact branch probabilities with a generator
    seeded by ``seed``; ``forced`` (a branch name, or a mapping from each
    result label to a branch name) pins outcomes instead, in which case the
    recorded probability is still the true probability of the forced branch.
    A mapping that misses a result label of the program, or names one the
    program never measures, raises ``ProgramError``.

    The program is bound once (see the executor's section comment) and one
    path of its branch tree is walked, as a stack of one row.
    """
    bound = _BoundProgram(program)
    if forced is None:
        rng = np.random.default_rng(seed)

        def pick(depth, plus_probability):
            return "plus" if rng.random() < plus_probability else "minus"
    else:
        path = _forced_path(forced, bound.labels)

        def pick(depth, plus_probability):
            return path[depth]
    (states, record), = bound.walk(input_state, _Path(pick))
    return SimulationTrace(final_state=states[0], measurement_record=record,
                           seed=seed)
