"""Lowering circuits to switch programs, and checking the result.

Every controlled gate becomes the same seven-instruction block: allocate a
|+> ancilla, apply the pre gate, run the switched pair against the ancilla,
measure the ancilla at the plan's angle, apply the branch correction on
either outcome, discard. Single-qubit gates pass through as local matrices;
any other gate without a controlled-gate spec is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import (
    CONTROLLED_GATES,
    Circuit,
    controlled_gate_spec,
    instruction_matrix,
    simulate_circuit,
)
from .jsonio import report_document
from .linalg import DEFAULT_TOLERANCE, fidelity, require_check_inputs, worst, worst_rank
from .programs import (  # MAX_EXHAUSTIVE_ASSIGNMENTS, re-exported
    MAX_EXHAUSTIVE_ASSIGNMENTS,
    AllocAncilla,
    ApplyLocal,
    CondApply,
    Discard,
    MeasureAncilla,
    SwitchApply,
    SwitchProgram,
    _BoundProgram,
    _Tree,
)
from .sampling import random_state
from .synthesis import ControlledGateSpec, synthesize


def lower(circuit: Circuit) -> SwitchProgram:
    """Compile a circuit into a switch program.

    Deterministic: matrices are content-addressed, ancilla and result labels
    are numbered per controlled gate in circuit order.
    """
    program = SwitchProgram(num_data_qubits=circuit.num_qubits)
    instructions = []
    # spec -> (pre, gate_a, gate_b, measurement angle, post_plus, post_minus),
    # the matrices as table ids, so each distinct spec is synthesized once;
    # specs equal under == (where -0.0 == 0.0) share one entry
    blocks: dict[ControlledGateSpec, tuple] = {}
    gate_index = 0
    for inst in circuit.instructions:
        if inst.gate not in CONTROLLED_GATES:
            matrix = instruction_matrix(inst)  # ValueError for an unknown gate
            if len(inst.qubits) > 1:  # a multi-qubit gate never bypasses the switch
                raise ValueError(f"{inst.gate} acts on {len(inst.qubits)} qubits but has "
                                 f"no controlled-gate spec, so no switch block lowers it")
            instructions.append(ApplyLocal(program.add_matrix(matrix), inst.qubits))
            continue
        spec = controlled_gate_spec(inst)
        block = blocks.get(spec)
        if block is None:
            plan = synthesize(spec)
            block = blocks[spec] = (
                program.add_matrix(plan.pre), program.add_matrix(plan.gate_a),
                program.add_matrix(plan.gate_b), plan.measurement_theta,
                program.add_matrix(plan.post_plus),
                program.add_matrix(plan.post_minus))
        pre, gate_a, gate_b, theta, post_plus, post_minus = block
        ancilla = f"a{gate_index}"
        result = f"m{gate_index}"
        gate_index += 1
        instructions += [
            AllocAncilla(ancilla),
            ApplyLocal(pre, inst.qubits),
            SwitchApply(gate_a, gate_b, inst.qubits, ancilla),
            MeasureAncilla(theta, ancilla, result),
            CondApply(result, "plus", post_plus, inst.qubits),
            CondApply(result, "minus", post_minus, inst.qubits),
            Discard(ancilla),
        ]
    program.instructions = tuple(instructions)
    return program


@dataclass(frozen=True)
class EquivalenceReport:
    """Worst-case deviation between a circuit and a lowered program.

    ``worst_trial`` is the first trial that reaches the largest 1 - fidelity
    (NaN first), and ``worst_assignment`` the smallest branch assignment in
    sorted order that reaches it in that trial, one branch name per result
    label in measurement order: ``simulate_program(program, psi, forced=...)``
    with that trial's input replays it. Neither is part of ``as_dict()``.
    """

    max_infidelity: float
    trials: int
    branch_assignments: int
    seed: int
    tolerance: float
    passed: bool
    worst_trial: int = 0
    worst_assignment: tuple[str, ...] = ()

    as_dict = report_document


def check_equivalence(circuit: Circuit, program: SwitchProgram,
                      trials: int = 100, seed: int = 42,
                      tolerance: float = DEFAULT_TOLERANCE) -> EquivalenceReport:
    """Compare program output against reference circuit semantics.

    For each random input the program's output is compared on every
    measurement-branch assignment when there are at most 2**10, and on a
    seeded sample of 2**10 otherwise; per-branch global phases are ignored
    by the fidelity. Passes iff the worst 1 - fidelity is within tolerance.

    The program is bound once per call, and each trial walks the branch tree
    of the assignments a level at a time, so a prefix they share runs once:
    2**(k+1) - 1 block runs per trial for all assignments of k measurements,
    not k * 2**k, each level's blocks in stacked numpy calls.
    """
    trials, seed = require_check_inputs(trials, seed, tolerance)
    bound = _BoundProgram(program)
    if circuit.num_qubits != bound.num_data_qubits:
        raise ValueError(f"circuit has {circuit.num_qubits} qubits, program "
                         f"has {bound.num_data_qubits}")
    rng = np.random.default_rng(seed)
    tree = _Tree(len(bound.labels), rng)

    def chunk_worsts():  # keyed trial * tree.size + row: first trial, then row
        for trial in range(trials):
            psi = random_state(rng, circuit.num_qubits)
            expected = simulate_circuit(circuit, psi)
            for states, (lo, _) in bound.walk(psi, tree):
                top, row = worst(1.0 - fidelity(expected, states), lo)
                yield top, trial * tree.size + row
    top, key = max(chunk_worsts(), key=worst_rank)
    worst_trial, worst_row = divmod(key, tree.size)
    # a NaN stays (max keeps its first argument unless a later one is larger)
    max_infidelity = max(top, 0.0)
    return EquivalenceReport(
        max_infidelity=max_infidelity,
        trials=trials,
        branch_assignments=tree.size,
        seed=seed,
        tolerance=tolerance,
        passed=max_infidelity <= tolerance,
        worst_trial=worst_trial,
        worst_assignment=tree.assignment(worst_row),
    )
