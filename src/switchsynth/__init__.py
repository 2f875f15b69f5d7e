"""Two-qubit controlled gates from single-qubit gates in superposed causal orders.

The package simulates the quantum switch (two or more operations applied in
a coherent superposition of their orderings), synthesizes arbitrary
controlled-U gates by measuring the switch's control qubit and applying a
branch-dependent local correction, and compiles small gate circuits down to
switch programs whose behaviour is certified numerically against direct
matrix definitions.

Every public name, and every submodule, is imported on first access
(PEP 562), so ``import switchsynth`` loads neither numpy nor a submodule
and each CLI command starts on only the modules it runs.
"""

from importlib import import_module as _import_module

# each submodule's public names, in the order of __all__
_EXPORTS = {
    "linalg": """H I2 P0 P1 PAULIS PLUS X Y Z apply_matrix basis_state bloch_dot
        canonical_perp dagger distance_up_to_phase fidelity is_density_matrix
        is_unitary normalize operator_schmidt_rank operator_schmidt_values
        projector realign rotation rotation_x rotation_y rotation_z tensor
        two_qubit_rotation zero_state""",
    "switch": """KrausChannel MeasurementOutcome SwitchJoint apply_switch
        branch_functionals branch_gates branch_gates_tensor choi_matrix
        measure_ancilla switch_channel switch_channel_n switch_unitary
        uniform_control_state""",
    "sampling": """random_bloch random_density random_kraus_channel random_state
        random_states random_unitary""",
    "synthesis": """ControlledGateSpec SynthesisPlan VerificationReport
        conjugation_identities barenco_matrix cu_matrix
        cu_reference_decomposition normalize_angle preset preset_barenco
        random_spec synthesize verify_synthesis""",
    "circuits": """Circuit CircuitParseError Instruction format_circuit
        instruction_matrix parse_circuit simulate_circuit""",
    "programs": """AllocAncilla ApplyLocal CondApply Discard MeasureAncilla
        ProgramError SimulationTrace SwitchApply SwitchProgram parse_program
        serialize_program simulate_program validate_program""",
    "lowering": "EquivalenceReport check_equivalence lower",
    "suites": "SUITE_NAMES PropertyResult run_suite",
}
# the one name -> submodule table
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "jsonio", "cli")

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
