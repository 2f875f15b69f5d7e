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
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

import numpy as np

from .jsonio import dumps, matrix_text
from .linalg import (
    MAX_QUBITS,
    PLUS,
    UNITARY_ATOL,
    _real,
    apply_ordered,
    axis_orders,
    is_unitary,
    require_seed,
    require_square,
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


# the type rule of each field annotation, which validate_program applies to an
# instruction's fields: each takes the value, its op tag and its field name,
# and returns the field's value
def _string(value, op: str, name: str) -> str:
    if type(value) is not str:
        raise ProgramError(f"{op} {name} must be a string, got {value!r}")
    return value


def _angle(value, op: str, name: str) -> float:
    """The one type rule of an angle: an int or a float, not a bool, as ``_real``'s float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProgramError(f"{op} {name} must be a number, got {value!r}")
    return _real(value, name)


def _qubits(value, op: str, name: str) -> tuple[int, ...]:
    """Qubit indices are a list or a tuple of plain ints (not bools)."""
    if type(value) not in (list, tuple) or not all(type(q) is int for q in value):
        raise ProgramError(f"qubit indices must be integers, got {value!r}")
    return tuple(value)


def validate_program(program: SwitchProgram) -> list[tuple]:
    """Check the static contract in one pass; raises ProgramError on violation.

    Each table id is a string; then each table matrix is a square 2-D
    complex array, unitary within ``UNITARY_ATOL`` (the first bad id in table
    order is named); then ``num_data_qubits`` is an integer from 0 to
    ``MAX_QUBITS``; each field of an instruction holds its annotation's type
    (a list or a tuple of ints for ``qubits``); ancillas are
    allocated before use and discarded after their last use; measurements
    precede any conditional referencing their result; matrix references
    resolve at matching dimensions; angles are finite numbers; the data
    qubits plus the ancillas held never exceed ``MAX_HELD_QUBITS``. Returns
    each instruction resolved, as ``(inst, qubits, total, index)``: the
    qubits it acts on (a switch's ancilla last, a measurement's ancilla
    alone), the qubit count of the state it acts on, and the record index of
    the measurement it makes or reads, or None.
    """
    matrices = program.matrices
    for key in matrices:  # jsonio writes a document's keys only as strings
        _string(key, "matrix", "id")
    faults: dict[str, str] = {}  # bad id -> its message
    shapes: dict[tuple, list[str]] = {}  # shape -> the ids of that shape
    for key, m in matrices.items():
        if (isinstance(m, np.ndarray) and m.dtype == complex and m.ndim == 2
                and m.shape[0] == m.shape[1]):
            shapes.setdefault(m.shape, []).append(key)
        else:
            got = (f"{m.dtype} array of shape {m.shape}"
                   if isinstance(m, np.ndarray) else type(m).__name__)
            faults[key] = f"matrix {key!r} must be a square 2-D complex array, got {got}"
    # huge or non-finite entries raise only the ProgramError, no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for keys in shapes.values():  # one stacked check per shape
            unitary = is_unitary(np.stack([matrices[key] for key in keys]))
            faults.update((key, f"matrix {key!r} is not unitary within {UNITARY_ATOL}")
                          for key, ok in zip(keys, unitary) if not ok)
    if faults:
        raise ProgramError(faults[next(key for key in matrices if key in faults)])

    n = program.num_data_qubits
    if type(n) is not int or n < 0:
        raise ProgramError(f"num_data_qubits must be a non-negative integer, got {n!r}")
    if n > MAX_QUBITS:
        raise ProgramError(f"num_data_qubits {n} exceeds the maximum of {MAX_QUBITS}")
    data_qubits = set(range(n))
    held: list[str] = []  # the ancilla ledger: those held, in qubit order,
    phase: dict[str, str] = {}  # and each one's "held", "measured" or "discarded"
    results: dict[str, int] = {}  # result label -> index in the record
    resolved: list[tuple] = []

    def check_matrix(key: str, field: str, qubits: tuple[int, ...], what: str) -> None:
        if _string(key, what, field) not in matrices:
            raise ProgramError(f"{what} references unknown matrix {key!r}")
        dim, want = matrices[key].shape[0], 2 ** len(qubits)
        if dim != want:
            raise ProgramError(f"{what} matrix {key!r} has dim {dim}, "
                               f"expected {want}")
        distinct = set(qubits)
        if len(distinct) != len(qubits):
            raise ProgramError(f"{what} qubits must be distinct, got {qubits}")
        if not distinct <= data_qubits:
            raise ProgramError(f"{what} qubit out of range for {n} data qubits")

    def check_ancilla(label: str, want: str, what: str) -> None:
        # the message follows from the phase it is in
        now = phase.get(_string(label, what, "ancilla"))
        if now != want:
            raise ProgramError({
                None: f"{what} uses unallocated ancilla {label!r}",
                "held": f"{what} needs ancilla {label!r} measured first",
                "measured": f"{what} uses already measured ancilla {label!r}",
                "discarded": f"{what} uses discarded ancilla {label!r}"}[now])

    for index, inst in enumerate(program.instructions):
        total, qubits, at = n + len(held), (), None
        kind = type(inst)  # a subclass has no tag to serialize: unknown
        if kind is AllocAncilla:
            _string(inst.ancilla, "alloc_ancilla", "ancilla")
            if _string(inst.state, "alloc_ancilla", "state") != "plus":
                raise ProgramError(f"unsupported ancilla state {inst.state!r}")
            if inst.ancilla in phase:
                raise ProgramError(f"ancilla {inst.ancilla!r} allocated twice")
            if total == MAX_HELD_QUBITS:
                raise ProgramError(f"instruction {index} (alloc_ancilla {inst.ancilla!r}) "
                                   f"holds {total + 1} qubits at once, above the "
                                   f"maximum of {MAX_HELD_QUBITS}")
            held.append(inst.ancilla)
            phase[inst.ancilla] = "held"
        elif kind is ApplyLocal:
            qubits = _qubits(inst.qubits, "apply_local", "qubits")
            check_matrix(inst.matrix, "matrix", qubits, "apply_local")
        elif kind is SwitchApply:
            local = _qubits(inst.qubits, "switch_apply", "qubits")
            check_matrix(inst.gate_a, "gate_a", local, "switch_apply")
            check_matrix(inst.gate_b, "gate_b", local, "switch_apply")
            check_ancilla(inst.ancilla, "held", "switch_apply")
            qubits = (*local, n + held.index(inst.ancilla))
        elif kind is MeasureAncilla:
            check_ancilla(inst.ancilla, "held", "measure_ancilla")
            if _string(inst.result, "measure_ancilla", "result") in results:
                raise ProgramError(f"result label {inst.result!r} reused")
            if not math.isfinite(_angle(inst.theta, "measure_ancilla", "theta")):
                raise ProgramError(f"instruction {index} (measure_ancilla "
                                   f"{inst.ancilla!r}): measurement angle must "
                                   f"be finite, got {inst.theta}")
            at = results[inst.result] = len(results)
            qubits = (n + held.index(inst.ancilla),)
            held.remove(inst.ancilla)  # the later ones close the gap
            phase[inst.ancilla] = "measured"
        elif kind is CondApply:
            if _string(inst.outcome, "cond_apply", "outcome") not in ("plus", "minus"):
                raise ProgramError(f"unknown outcome {inst.outcome!r}")
            if _string(inst.result, "cond_apply", "result") not in results:
                raise ProgramError(f"cond_apply references unmeasured result {inst.result!r}")
            qubits, at = _qubits(inst.qubits, "cond_apply", "qubits"), results[inst.result]
            check_matrix(inst.matrix, "matrix", qubits, "cond_apply")
        elif kind is Discard:
            check_ancilla(inst.ancilla, "measured", "discard")
            phase[inst.ancilla] = "discarded"
        else:
            raise ProgramError(f"unknown instruction {inst!r}")
        resolved.append((inst, qubits, total, at))
    kept = sorted(label for label, now in phase.items() if now != "discarded")
    if kept:
        raise ProgramError(f"ancillas never discarded: {kept}")
    return resolved


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def program_document(program: SwitchProgram) -> dict:
    """The document ``dumps`` writes for a program; matrices stay arrays."""
    return {
        "num_data_qubits": program.num_data_qubits,
        "matrices": dict(sorted(program.matrices.items())),
        # a dataclass instance's __dict__ holds its fields in declaration order
        "instructions": [{"op": _TAGS[type(inst)], **vars(inst)}
                         for inst in program.instructions],
    }


def serialize_program(program: SwitchProgram) -> str:
    """Serialize to deterministic JSON text."""
    validate_program(program)
    return dumps(program_document(program))


def _matrix_from_entries(entries, key: str) -> np.ndarray:
    dim = math.isqrt(len(entries))
    if dim * dim != len(entries):
        raise ProgramError(f"matrix {key!r} has {len(entries)} entries, not square")
    values = []
    for re, im in entries:
        if type(re) is bool or type(im) is bool:  # complex(True, 0) is 1
            raise ProgramError(f"matrix {key!r} entries must be numbers, got {[re, im]!r}")
        values.append(complex(re, im))
    return np.array(values, dtype=complex).reshape(dim, dim)


# per op tag: the keys a record may hold besides "op"
_KEYS = {tag: {f.name for f in fields(cls)} for tag, cls in OPS.items()}
_DOCUMENT_KEYS = {"num_data_qubits", "matrices", "instructions"}


def _refuse_unknown_keys(doc: dict, known: set[str], op: str | None = None) -> None:
    """Name the first key of the document (or of an ``op`` record) not known."""
    if not doc.keys() <= known:
        key = next(key for key in doc if key not in known)
        where = f"{op} record" if op else "the program document"
        raise ProgramError(f"unknown key {key!r} in {where}")


def parse_program(text: str) -> SwitchProgram:
    """Parse serialized JSON back into a program ``validate_program`` accepts.

    The document and each record hold only the keys they know. Each record
    becomes its op's dataclass with the values as written, a JSON list of
    ``qubits`` as a tuple, and ``validate_program`` then judges every field,
    so a document and the same program built by hand fail alike.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:  # also too many digits or levels
        raise ProgramError(f"invalid program JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ProgramError("program document must be a JSON object")
    _refuse_unknown_keys(doc, _DOCUMENT_KEYS)
    try:
        num_data_qubits = doc["num_data_qubits"]
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
            op = record.pop("op")
            if op not in OPS:
                raise ProgramError(f"unknown instruction op {op!r}")
            _refuse_unknown_keys(record, _KEYS[op], op)
            if type(record.get("qubits")) is list:
                record["qubits"] = tuple(record["qubits"])
            instructions.append(OPS[op](**record))  # TypeError for a missing field
    except (KeyError, TypeError, ValueError, OverflowError) as err:
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
#
# One executor serves sampled, forced and exhaustive runs. Binding reads the
# output of validate_program, builds each distinct switch joint once and
# resolves every axis order and branch functional, leaving segments of plain
# data: the steps up to a measurement, then that measurement. A step is None,
# an ancilla allocation, or (matrix, layout, condition): a matrix, its
# `axis_orders` layout, and None or the (record index, outcome) of a
# `cond_apply`. A measurement is (functionals, label, move): the (shape, order)
# that moves its ancilla last, or None if it is last. The walk applies them
# along the branch tree a level at a time: the nodes at one depth are the rows
# of one (rows, 2^total) stack and each step is one numpy call on it; a
# conditional step updates the rows whose recorded outcome matches. At a
# measurement (of the last qubit, after its move) the walk projects the stack,
# a chooser says which rows follow each branch, and the walk refuses a
# followed branch of probability 0 and keeps the followed post-measurement
# states, plus branch first, as the next level's rows, so a prefix shared by
# many branch assignments runs once. Each level is cut into chunks of at most
# max(1, CAP // dim) rows, walked depth first. A sampled or forced run is the
# same walk on one row. Numpy's stacked matmul runs each row on the one-state
# product's kernel and shapes, and every other step acts on each row alone, so
# every leaf is bit-identical to a replay of its branch assignment one
# instruction at a time.

CAP = 1024  # amplitudes per chunk of the walk

# beyond this many branch assignments, check_equivalence samples instead of
# enumerating (2**10)
MAX_EXHAUSTIVE_ASSIGNMENTS = 1024

_ALL = slice(None)  # a row selection: all rows (_ALL), none (None) or an index array


def _rows(mask: np.ndarray):
    """The row selection of a boolean mask over a stack."""
    if mask.all():
        return _ALL
    return np.flatnonzero(mask) if mask.any() else None


class _Tree:
    """Chooser that follows each branch assignment of its table: all 2**k of
    ``k`` measurements, or ``MAX_EXHAUSTIVE_ASSIGNMENTS`` drawn from ``rng``.

    ``table`` is a boolean (assignments, measurements) array, True for plus,
    with its rows in sorted order ("minus" before "plus"), so the rows that
    share their first ``depth`` branch names are contiguous. A stack's nodes
    are the arrays ``(lo, hi)``: row i's assignments are ``table[lo[i]:hi[i]]``.
    """

    def __init__(self, k: int, rng: np.random.Generator | None):
        if 2 ** k <= MAX_EXHAUSTIVE_ASSIGNMENTS:
            # row i spells i in binary, first label most significant: sorted
            self.table = (np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1 == 1
        else:  # one draw: row by row the same stream as one rng.choice per row
            table = rng.choice(("plus", "minus"), size=(MAX_EXHAUSTIVE_ASSIGNMENTS, k)) == "plus"
            self.table = table[np.lexsort(table.T[::-1])]
        self.size = len(self.table)
        self.root = (np.zeros(1, dtype=np.intp), np.full(1, self.size))

    def assignment(self, row: int) -> tuple[str, ...]:
        """Row ``row`` of the table as branch names, in measurement order."""
        return tuple("plus" if plus else "minus" for plus in self.table[row])

    def split(self, depth: int, label: str, nodes, branches):
        lo, hi = nodes
        minus_before = np.concatenate(([0], np.cumsum(~self.table[:, depth])))
        mid = lo + minus_before[hi] - minus_before[lo]
        plus, minus = mid < hi, lo < mid
        return ((_rows(plus), _rows(minus)),
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

    def split(self, depth: int, label: str, record, branches):
        name = self.pick(depth, float(branches[0][0][0]))
        probability = float(branches[0 if name == "plus" else 1][0][0])
        return ((_ALL, None) if name == "plus" else (None, _ALL),
                record + ((label, name, probability),))

    def took(self, record, index: int, outcome: str):
        return _ALL if record[index][1] == outcome else None


class _BoundProgram:
    """A validated program bound for execution (see the section comment)."""

    def __init__(self, program: SwitchProgram):
        resolved = validate_program(program)
        self.num_data_qubits = program.num_data_qubits
        matrices = program.matrices
        joints: dict[tuple[str, str], np.ndarray] = {}
        self.segments: list[tuple[list, tuple | None]] = []
        steps: list = []
        for inst, qubits, total, index in resolved:
            if isinstance(inst, AllocAncilla):
                steps.append(None)
            elif isinstance(inst, SwitchApply):
                key = (inst.gate_a, inst.gate_b)
                if key not in joints:
                    joints[key] = joint_matrix(matrices[inst.gate_a], matrices[inst.gate_b])
                steps.append((joints[key], axis_orders(qubits, total), None))
            elif isinstance(inst, MeasureAncilla):
                pos = qubits[0]
                move = None if pos == total - 1 else axis_orders(
                    (*range(pos), *range(pos + 1, total), pos), total)[:2]
                self.segments.append((steps, (branch_functionals(inst.theta), inst.result, move)))
                steps = []
            elif isinstance(inst, (ApplyLocal, CondApply)):
                condition = None if index is None else (index, inst.outcome)
                steps.append((matrices[inst.matrix], axis_orders(qubits, total),
                               condition))
            # Discard: the state already lost the ancilla at its measurement
        self.segments.append((steps, None))
        self.labels = tuple(label for _, (_, label, _) in self.segments[:-1])

    def walk(self, input_state: np.ndarray, chooser):
        """Yield (states, nodes) for every chunk of leaves reached.

        From ``chooser.root``, ``chooser.split(depth, label, nodes,
        branches)`` takes the stack's ``project_branches`` and returns the
        row selections (``_rows``) of the plus and the minus branch and the
        next nodes, and ``chooser.took(nodes, index, outcome)`` selects the
        rows whose measurement ``index`` gave ``outcome``. A followed branch
        of probability 0 raises ProgramError, plus checked first. An explicit
        stack of chunks leaves depth unbounded by the recursion limit.
        """
        state = np.array(input_state, dtype=complex)
        if state.size != 2 ** self.num_data_qubits:
            raise ProgramError(f"input has {state.size} amplitudes, "
                               f"program needs {2 ** self.num_data_qubits}")
        norm = np.vdot(state, state).real
        if not abs(norm - 1.0) <= UNITARY_ATOL:  # NaN too
            raise ProgramError(f"input state is not normalized: squared norm {norm}")
        work = [(0, state.reshape(1, -1), chooser.root)]
        while work:
            depth, states, nodes = work.pop()
            steps, measurement = self.segments[depth]
            for step in steps:
                if step is None:
                    states = tensor(states, PLUS)
                    continue
                matrix, layout, condition = step
                rows = _ALL if condition is None else chooser.took(nodes, *condition)
                if rows is _ALL:
                    states = apply_ordered(states, matrix, *layout)
                elif rows is not None:
                    states = states.copy()
                    states[rows] = apply_ordered(states[rows], matrix, *layout)
            if measurement is None:
                yield states, nodes
                continue
            functionals, label, move = measurement
            if move is not None:
                shape, order = move
                states = states.reshape(shape).transpose(order).reshape(len(states), -1)
            branches = project_branches(states, functionals)
            selections, nodes = chooser.split(depth, label, nodes, branches)
            followed = []
            for name, (probability, post), rows in zip(("plus", "minus"), branches,
                                                       selections):
                if rows is None:
                    continue
                if not probability[rows].all():
                    raise ProgramError(f"branch {name!r} of {label!r} has probability 0")
                followed.append(post[rows])
            states = followed[0] if len(followed) == 1 else np.concatenate(followed)
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
    elif not isinstance(forced, Mapping):
        raise ProgramError(f"forced must be a branch name or a mapping from "
                           f"result label to branch name, got {forced!r}")
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
    seeded by ``seed`` (None, or a non-negative integer the trace keeps as an
    int); ``forced`` (a branch name, or a mapping from each result label to
    a branch name) pins outcomes instead, in which case the recorded
    probability is still the true probability of the forced branch.
    A mapping that misses a result label of the program, or names one the
    program never measures, raises ``ProgramError``, as does a ``forced``
    that is neither a branch name nor a mapping.

    The program is bound once (see the executor's section comment) and one
    path of its branch tree is walked, as a stack of one row.
    """
    seed = None if seed is None else require_seed(seed)
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
