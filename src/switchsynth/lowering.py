"""Lowering circuits to switch programs, and checking the result.

Every controlled gate becomes the same seven-instruction block: allocate a
|+> ancilla, apply the pre gate, run the switched pair against the ancilla,
measure the ancilla at the plan's angle, apply the branch correction on
either outcome, discard. Single-qubit gates pass through as local matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .circuits import (
    CONTROLLED_GATES,
    Circuit,
    controlled_gate_spec,
    instruction_matrix,
    simulate_circuit,
)
from .linalg import DEFAULT_TOLERANCE, fidelity, require_check_inputs
from .programs import (
    AllocAncilla,
    ApplyLocal,
    CondApply,
    Discard,
    MeasureAncilla,
    SwitchApply,
    SwitchProgram,
    _assignment_tree,
    _BoundProgram,
)
from .sampling import random_state
from .synthesis import ControlledGateSpec, synthesize

# beyond this many branch assignments, check_equivalence samples instead of
# enumerating (2**10)
MAX_EXHAUSTIVE_ASSIGNMENTS = 1024


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
            instructions.append(ApplyLocal(
                program.add_matrix(instruction_matrix(inst)), inst.qubits))
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
    """Worst-case deviation between a circuit and a lowered program."""

    max_infidelity: float
    trials: int
    branch_assignments: int
    seed: int
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "max_infidelity": self.max_infidelity,
            "trials": self.trials,
            "branch_assignments": self.branch_assignments,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def check_equivalence(circuit: Circuit, program: SwitchProgram,
                      trials: int = 100, seed: int = 42,
                      tolerance: float = DEFAULT_TOLERANCE) -> EquivalenceReport:
    """Compare program output against reference circuit semantics.

    For each random input the program's output is compared on every
    measurement-branch assignment when there are at most 2**10, and on a
    seeded sample of 2**10 otherwise; per-branch global phases are ignored
    by the fidelity. Passes iff the worst 1 - fidelity is within tolerance.

    The program is bound once per call, and each trial walks the branch tree
    of the assignments, so a prefix they share runs once: 2**(k+1) - 1 block
    runs per trial for all assignments of k measurements, not k * 2**k.
    """
    require_check_inputs(trials, tolerance)
    if circuit.num_qubits != program.num_data_qubits:
        raise ValueError(f"circuit has {circuit.num_qubits} qubits, program "
                         f"has {program.num_data_qubits}")
    bound = _BoundProgram(program)
    k = len(bound.labels)
    rng = np.random.default_rng(seed)
    if 2 ** k <= MAX_EXHAUSTIVE_ASSIGNMENTS:
        assignments = list(product(("plus", "minus"), repeat=k))
    else:
        # tolist(): plain str, not 1024 * k numpy string scalars
        assignments = [tuple(rng.choice(("plus", "minus"), size=k).tolist())
                       for _ in range(MAX_EXHAUSTIVE_ASSIGNMENTS)]
    tree = _assignment_tree(assignments)

    max_infidelity = 0.0
    for _ in range(trials):
        psi = random_state(rng, circuit.num_qubits)
        expected = simulate_circuit(circuit, psi)
        for _, state in bound.walk(psi, tree):
            max_infidelity = max(max_infidelity,
                                 1.0 - fidelity(expected, state))
    return EquivalenceReport(
        max_infidelity=max_infidelity,
        trials=trials,
        branch_assignments=len(assignments),
        seed=seed,
        tolerance=tolerance,
        passed=max_infidelity <= tolerance,
    )
