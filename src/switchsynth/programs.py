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
in declaration order, with tuples written as lists. A matrix's id and its
serialized entries are both made from one ``%`` format of its floats.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left
from dataclasses import MISSING, dataclass, field, fields
from operator import itemgetter

import numpy as np

from .jsonio import RawJSON, dumps, format_float
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
from .switch import branch_functionals, project_branches, switch_unitary


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


# data qubits plus the one ancilla a switch block holds, so a circuit of
# MAX_QUBITS qubits lowers to a program within the cap
MAX_HELD_QUBITS = MAX_QUBITS + 1


def matrix_entries(m: np.ndarray) -> list[list[float]]:
    """Row-major [re, im] pairs of a matrix."""
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[re, im] for re, im in zip(flat.real.tolist(), flat.imag.tolist())]


def matrix_text(m: np.ndarray) -> str:
    """Row-major ``re,im|re,im|...`` of a matrix in ``format_float`` text.

    One ``%`` format over the interleaved floats; adding 0.0 turns -0.0
    into 0.0, which prints as "0" as ``format_float`` does.
    """
    values = np.ascontiguousarray(m, dtype=complex).reshape(-1).view(float)
    finite = np.isfinite(values)
    if not finite.all():
        format_float(float(values[np.argmin(finite)]))  # raises its ValueError
    return ("%.17g,%.17g|" * (values.size // 2))[:-1] % tuple(
        (values + 0.0).tolist())


def matrix_id(m: np.ndarray) -> str:
    """Content hash of a matrix at serialization precision."""
    return "m" + hashlib.sha256(matrix_text(m).encode()).hexdigest()[:12]


def _entries_json(m: np.ndarray) -> RawJSON:
    """``matrix_entries(m)`` as ``dumps`` writes it, from ``matrix_text``."""
    text = matrix_text(m)
    if not text:
        return RawJSON("[]")
    return RawJSON("[[" + text.replace(",", ", ").replace("|", "], [") + "]]")


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
            key = self._ids[content] = matrix_id(m)
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
    references resolve at matching dimensions; the data qubits plus the
    ancillas allocated and not yet measured never exceed ``MAX_HELD_QUBITS``.
    """
    n = program.num_data_qubits
    held = n  # qubits in the state: measuring an ancilla removes it
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

    for index, inst in enumerate(program.instructions):
        if isinstance(inst, AllocAncilla):
            if inst.state != "plus":
                raise ProgramError(f"unsupported ancilla state {inst.state!r}")
            if inst.ancilla in live or inst.ancilla in done:
                raise ProgramError(f"ancilla {inst.ancilla!r} allocated twice")
            live.add(inst.ancilla)
            held += 1
            if held > MAX_HELD_QUBITS:
                raise ProgramError(f"instruction {index} (alloc_ancilla "
                                   f"{inst.ancilla!r}) holds {held} qubits at "
                                   f"once, above the maximum of "
                                   f"{MAX_HELD_QUBITS}")
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
            held -= 1
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


def _document(program: SwitchProgram, entries) -> dict:
    """The program's document, each matrix written as ``entries(m)``."""
    return {
        "num_data_qubits": program.num_data_qubits,
        "matrices": {key: entries(m)
                     for key, m in sorted(program.matrices.items())},
        "instructions": [_record(inst) for inst in program.instructions],
    }


def program_document(program: SwitchProgram) -> dict:
    """Plain-data document for a program (dict of JSON-compatible values)."""
    return _document(program, matrix_entries)


def serialize_program(program: SwitchProgram) -> str:
    """Serialize to deterministic JSON text: ``dumps(program_document(...))``,
    with each matrix's entries made by one ``%`` format."""
    validate_program(program)
    return dumps(_document(program, _entries_json))


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
    """Parse serialized JSON back into a validated SwitchProgram.

    ``num_data_qubits`` must be an integer from 0 to ``MAX_QUBITS`` and
    every matrix in the table must be unitary within ``UNITARY_ATOL``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
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
    for key, m in matrices.items():
        if not is_unitary(m):
            raise ProgramError(f"matrix {key!r} is not unitary within "
                               f"{UNITARY_ATOL}")
    program = SwitchProgram(num_data_qubits=num_data_qubits, matrices=matrices,
                            instructions=tuple(instructions))
    validate_program(program)
    return program


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------
#
# One executor serves sampled, forced and exhaustive runs. Binding validates
# the program once, builds each distinct switch joint once and resolves every
# ancilla position, every update's axis orders and every measurement's branch
# functionals, leaving segments: the state updates up to a measurement, then
# that measurement. Each update is then a transpose, a matrix product and a
# transpose back; each measurement is a normalization check and the
# projection kernel, since the measured ancilla is by construction the last
# qubit of a state on at least one. The walk runs the segments along the
# branch tree; at each measurement a chooser names the branches to follow,
# and every followed branch continues from the one post-measurement state, so
# a prefix shared by many branch assignments runs once. Each update is the
# same numpy call on the same operands as an instruction-by-instruction
# replay of one branch assignment, so every leaf state is bit-identical to
# that replay.


def _local(matrix: np.ndarray, qubits: tuple[int, ...], total: int):
    """``apply_matrix`` on a ``total``-qubit state, resolved at bind time."""
    matrix = np.asarray(matrix, dtype=complex)
    shape = (2,) * total
    order, inverse = axis_orders(qubits, total)
    return lambda state, record: apply_ordered(state, matrix, shape, order,
                                               inverse)


def _alloc(state: np.ndarray, record) -> np.ndarray:
    return tensor(state, PLUS)


def _to_last(pos: int, total: int):
    """Move the ancilla at ``pos`` behind the ``total - 1`` other qubits."""
    shape = (2,) * total
    order = (*range(pos), *range(pos + 1, total), pos)
    return lambda state, record: state.reshape(shape).transpose(order).reshape(-1)


def _conditional(index: int, outcome: str, matrix: np.ndarray,
                 qubits: tuple[int, ...], total: int):
    """Apply ``matrix`` when measurement ``index`` of the path gave ``outcome``."""
    apply = _local(matrix, qubits, total)

    def step(state, record):
        if record[index][1] == outcome:
            return apply(state, record)
        return state
    return step


def _assignment_tree(assignments) -> tuple:
    """Root of the branch tree over a set of branch assignments.

    A node is ``(ordered, lo, hi, depth)``: the sorted assignments in
    ``ordered[lo:hi]`` share their first ``depth`` branch names. Nodes are
    index ranges rather than a trie of dicts, so a sample of long
    assignments costs no memory beyond the sample itself.
    """
    ordered = sorted(assignments)
    for assignment in ordered:
        for name in assignment:
            if name not in ("plus", "minus"):
                raise ProgramError(f"unknown forced outcome {name!r}")
    return ordered, 0, len(ordered), 0


def _follow_tree(node: tuple, plus_probability: float):
    ordered, lo, hi, depth = node
    # "minus" sorts before "plus"
    mid = bisect_left(ordered, "plus", lo, hi, key=itemgetter(depth))
    return [(name, (ordered, start, stop, depth + 1))
            for name, start, stop in (("plus", mid, hi), ("minus", lo, mid))
            if start < stop]


def _sampler(seed: int | None):
    """Chooser drawing one branch per measurement from a seeded generator."""
    rng = np.random.default_rng(seed)

    def choose(node, plus_probability: float):
        return (("plus" if rng.random() < plus_probability else "minus", None),)
    return choose


class _BoundProgram:
    """A validated program bound for execution (see the section comment)."""

    def __init__(self, program: SwitchProgram):
        validate_program(program)
        self.num_data_qubits = program.num_data_qubits
        matrices = program.matrices
        joints: dict[tuple[str, str], np.ndarray] = {}
        positions: dict[str, int] = {}
        total = program.num_data_qubits
        measured: dict[str, int] = {}  # result label -> index in the record
        self.segments: list[tuple[list, tuple[tuple, str] | None]] = []
        steps: list = []
        for inst in program.instructions:
            if isinstance(inst, AllocAncilla):
                steps.append(_alloc)
                positions[inst.ancilla] = total
                total += 1
            elif isinstance(inst, ApplyLocal):
                steps.append(_local(matrices[inst.matrix], inst.qubits, total))
            elif isinstance(inst, SwitchApply):
                key = (inst.gate_a, inst.gate_b)
                if key not in joints:
                    joints[key] = switch_unitary(matrices[inst.gate_a],
                                                 matrices[inst.gate_b]).matrix
                steps.append(_local(joints[key],
                                    (*inst.qubits, positions[inst.ancilla]),
                                    total))
            elif isinstance(inst, MeasureAncilla):
                pos = positions.pop(inst.ancilla)
                if pos != total - 1:
                    steps.append(_to_last(pos, total))
                    for label in positions:
                        if positions[label] > pos:
                            positions[label] -= 1
                total -= 1
                measured[inst.result] = len(measured)
                self.segments.append(
                    (steps, (branch_functionals(inst.theta), inst.result)))
                steps = []
            elif isinstance(inst, CondApply):
                steps.append(_conditional(measured[inst.result], inst.outcome,
                                          matrices[inst.matrix], inst.qubits,
                                          total))
            # Discard: the state already lost the ancilla at its measurement
        self.segments.append((steps, None))
        self.labels = tuple(measured)

    def walk(self, input_state: np.ndarray, root, choose=_follow_tree):
        """Yield (measurement record, final state) at every leaf reached.

        ``choose(node, plus_probability)`` returns the (branch name, child
        node) pairs to follow at a measurement, starting from ``root``; by
        default the nodes are those of an ``_assignment_tree``.
        The tree is walked with an explicit stack, so depth is not bounded by
        the interpreter's recursion limit.
        """
        state = np.asarray(input_state, dtype=complex).copy()
        if state_num_qubits(state) != self.num_data_qubits:
            raise ProgramError(f"input has {state_num_qubits(state)} qubits, "
                               f"program needs {self.num_data_qubits}")
        stack = [(0, state, (), root)]
        while stack:
            index, state, record, node = stack.pop()
            steps, measurement = self.segments[index]
            for step in steps:
                state = step(state, record)
            if measurement is None:
                yield record, state
                continue
            functionals, label = measurement
            plus, minus = project_branches(state, functionals)
            followed = []
            for name, child in choose(node, float(plus[0])):
                probability, post_state = plus if name == "plus" else minus
                if not probability:
                    raise ProgramError(f"branch {name!r} of {label!r} has "
                                       f"probability 0")
                followed.append((index + 1, post_state,
                                 record + ((label, name, float(probability)),),
                                 child))
            stack += followed


def simulate_program(program: SwitchProgram, input_state: np.ndarray,
                     seed: int | None = None,
                     forced=None) -> SimulationTrace:
    """Run a program on a data-qubit input state.

    Measurements sample from the exact branch probabilities with a generator
    seeded by ``seed``; ``forced`` (a branch name, or a mapping from result
    label to branch name) pins outcomes instead, in which case the recorded
    probability is still the true probability of the forced branch.

    The program is bound once (validated, each distinct switch joint built
    once) and one path of its branch tree is walked.
    """
    bound = _BoundProgram(program)
    if forced is None:
        leaves = bound.walk(input_state, None, _sampler(seed))
    else:
        path = [forced if isinstance(forced, str) else forced[label]
                for label in bound.labels]
        leaves = bound.walk(input_state, _assignment_tree([path]))
    (record, state), = leaves
    return SimulationTrace(final_state=state, measurement_record=record,
                           seed=seed)
