"""Two-qubit controlled gates from single-qubit gates in superposed causal orders.

The package simulates the quantum switch (two or more operations applied in
a coherent superposition of their orderings), synthesizes arbitrary
controlled-U gates by measuring the switch's control qubit and applying a
branch-dependent local correction, and compiles small gate circuits down to
switch programs whose behaviour is certified numerically against direct
matrix definitions.
"""

from .linalg import (
    H,
    I2,
    P0,
    P1,
    PAULIS,
    PLUS,
    X,
    Y,
    Z,
    apply_matrix,
    basis_state,
    bloch_dot,
    canonical_perp,
    dagger,
    distance_up_to_phase,
    fidelity,
    is_density_matrix,
    is_unitary,
    normalize,
    operator_schmidt_rank,
    operator_schmidt_values,
    projector,
    realign,
    rotation,
    rotation_x,
    rotation_y,
    rotation_z,
    tensor,
    two_qubit_rotation,
    zero_state,
)
from .switch import (
    KrausChannel,
    MeasurementOutcome,
    SwitchJoint,
    apply_switch,
    branch_functionals,
    branch_gates,
    branch_gates_tensor,
    choi_matrix,
    measure_ancilla,
    switch_channel,
    switch_channel_n,
    switch_unitary,
    uniform_control_state,
)
from .sampling import (
    random_bloch,
    random_density,
    random_kraus_channel,
    random_state,
    random_states,
    random_unitary,
)
from .synthesis import (
    ControlledGateSpec,
    SynthesisPlan,
    VerificationReport,
    conjugation_identities,
    barenco_matrix,
    cu_matrix,
    cu_reference_decomposition,
    normalize_angle,
    preset,
    preset_barenco,
    random_spec,
    synthesize,
    verify_synthesis,
)
from .circuits import (
    Circuit,
    CircuitParseError,
    Instruction,
    format_circuit,
    instruction_matrix,
    parse_circuit,
    simulate_circuit,
)
from .programs import (
    AllocAncilla,
    ApplyLocal,
    CondApply,
    Discard,
    MeasureAncilla,
    ProgramError,
    SimulationTrace,
    SwitchApply,
    SwitchProgram,
    parse_program,
    serialize_program,
    simulate_program,
    validate_program,
)
from .lowering import EquivalenceReport, check_equivalence, lower
from .suites import SUITE_NAMES, PropertyResult, run_suite

__all__ = [
    "H", "I2", "P0", "P1", "PAULIS", "PLUS", "X", "Y", "Z",
    "apply_matrix", "basis_state", "bloch_dot", "canonical_perp", "dagger",
    "distance_up_to_phase", "fidelity", "is_density_matrix", "is_unitary",
    "normalize", "operator_schmidt_rank", "operator_schmidt_values",
    "projector", "realign", "rotation", "rotation_x", "rotation_y",
    "rotation_z", "tensor", "two_qubit_rotation", "zero_state",
    "KrausChannel", "MeasurementOutcome", "SwitchJoint", "apply_switch",
    "branch_functionals", "branch_gates", "branch_gates_tensor",
    "choi_matrix", "measure_ancilla", "switch_channel", "switch_channel_n",
    "switch_unitary", "uniform_control_state",
    "random_bloch", "random_density", "random_kraus_channel", "random_state",
    "random_states", "random_unitary",
    "ControlledGateSpec", "SynthesisPlan", "VerificationReport",
    "conjugation_identities", "barenco_matrix", "cu_matrix",
    "cu_reference_decomposition", "normalize_angle", "preset",
    "preset_barenco", "random_spec", "synthesize", "verify_synthesis",
    "Circuit", "CircuitParseError", "Instruction", "format_circuit",
    "instruction_matrix", "parse_circuit", "simulate_circuit",
    "AllocAncilla", "ApplyLocal", "CondApply", "Discard", "MeasureAncilla",
    "ProgramError", "SimulationTrace", "SwitchApply", "SwitchProgram",
    "parse_program", "serialize_program", "simulate_program",
    "validate_program",
    "EquivalenceReport", "check_equivalence", "lower",
    "SUITE_NAMES", "PropertyResult", "run_suite",
]

__version__ = "0.1.0"
