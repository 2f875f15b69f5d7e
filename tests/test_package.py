"""The package surface: lazy public names (PEP 562) that load on first use."""

import importlib
import json
import subprocess
import sys

import pytest

import switchsynth

# the public names in __all__ order, as the package exported them eagerly
PUBLIC_NAMES = [
    "H", "I2", "P0", "P1", "PAULIS", "PLUS", "X", "Y", "Z", "apply_matrix",
    "basis_state", "bloch_dot", "canonical_perp", "dagger",
    "distance_up_to_phase", "fidelity", "is_density_matrix", "is_unitary",
    "normalize", "operator_schmidt_rank", "operator_schmidt_values",
    "projector", "realign", "rotation", "rotation_x", "rotation_y",
    "rotation_z", "tensor", "two_qubit_rotation", "zero_state",
    "KrausChannel", "MeasurementOutcome", "SwitchJoint", "apply_switch",
    "branch_functionals", "branch_gates", "branch_gates_tensor", "choi_matrix",
    "measure_ancilla", "switch_channel", "switch_channel_n", "switch_unitary",
    "uniform_control_state",
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
SUBMODULES = ("linalg", "switch", "sampling", "synthesis", "circuits",
              "programs", "lowering", "suites", "jsonio", "cli")


def fresh(code: str):
    """The JSON value that ``code`` prints last, run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_numpy_no_submodule_and_leaves_the_environment():
    loaded, same_environ = fresh(
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        "import switchsynth\n"
        "print(json.dumps([sorted(m for m in sys.modules\n"
        "                         if m.split('.')[0] in ('numpy', 'switchsynth')),\n"
        "                  dict(os.environ) == before]))")
    assert loaded == ["switchsynth"]
    assert same_environ


def test_every_import_form_leaves_the_environment():
    assert fresh("import json, os\n"
                 "before = dict(os.environ)\n"
                 "from switchsynth import *\n"
                 "import switchsynth.cli, switchsynth.suites\n"
                 "print(json.dumps(dict(os.environ) == before))")


def test_all_lists_the_public_names_in_order():
    assert switchsynth.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 88


def test_each_name_is_the_object_its_submodule_defines():
    for name in PUBLIC_NAMES:
        home = importlib.import_module(f"switchsynth.{switchsynth._HOME[name]}")
        assert getattr(switchsynth, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from switchsynth import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert namespace["synthesize"] is switchsynth.synthesis.synthesize


def test_submodules_are_attributes_and_dir_lists_everything():
    for module in SUBMODULES:
        assert getattr(switchsynth, module) is importlib.import_module(
            f"switchsynth.{module}")
    assert set(PUBLIC_NAMES) | set(SUBMODULES) <= set(dir(switchsynth))


@pytest.mark.parametrize("name", ["no_such_name", "__main__", "numpy", "_EXPORT"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(switchsynth, name)
    assert not hasattr(switchsynth, name)


@pytest.mark.parametrize("name", ["I2", "X", "Y", "Z", "H", "P0", "P1", "PLUS",
                                  "CNOT_MATRIX", "CZ_MATRIX"])
def test_an_exported_constant_refuses_a_write(name):
    # a write into PLUS would put every later ancilla in another state
    home = "circuits" if name.endswith("_MATRIX") else "linalg"
    constant = getattr(importlib.import_module(f"switchsynth.{home}"), name)
    before = constant.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        constant[(0,) * constant.ndim] = 5
    assert constant.tobytes() == before
