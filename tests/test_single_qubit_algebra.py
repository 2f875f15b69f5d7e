"""The single-qubit algebra built from Python floats, against its numpy forms.

``linalg`` and ``synthesis`` assemble rotations, Pauli dots, the CU and
Barenco targets and a plan's factors from Python floats and complex numbers;
``oracles`` keeps the numpy expressions they replace. Arrays are compared by
their bytes, so every signed zero counts.
"""

import itertools
import math

import numpy as np
import pytest

import oracles
from oracles import same_bytes
from switchsynth.circuits import GATES
from switchsynth.linalg import (
    H,
    bloch_dot,
    canonical_perp,
    rotation,
    rotation_x,
    rotation_y,
    rotation_z,
    su2,
    two_qubit_rotation,
)
from switchsynth.synthesis import (
    ControlledGateSpec,
    barenco_matrix,
    cu_matrix,
    preset,
    preset_barenco,
    synthesize,
)


def _signed_axes():
    """The six signed axis-aligned axes, each with every sign of its zeros."""
    axes = []
    for i, one in itertools.product(range(3), (1.0, -1.0)):
        for zeros in itertools.product((0.0, -0.0), repeat=2):
            axis = list(zeros)
            axis.insert(i, one)
            axes.append(tuple(axis))
    return axes


_rng = np.random.default_rng(2026)
SIGNED_AXES = _signed_axes()
ZERO_COMPONENT_AXES = [(0.6, -0.0, 0.8), (-0.0, -0.6, 0.8), (0.6, 0.8, -0.0),
                       (-0.8, -0.0, -0.6), (-0.0, 0.8, -0.6)]
HAAR_AXES = [tuple((v / np.linalg.norm(v)).tolist())
             for v in _rng.standard_normal((1000, 3))]
AXES = SIGNED_AXES + ZERO_COMPONENT_AXES + HAAR_AXES
ANGLES = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi,
          4 * math.pi, -4 * math.pi, 1e6, *_rng.uniform(-30.0, 30.0, 8).tolist()]


def test_bloch_dot_and_canonical_perp_are_their_numpy_forms():
    for n in AXES:
        assert same_bytes(bloch_dot(n), oracles.numpy_bloch_dot(n)), n
        assert same_bytes(canonical_perp(n), oracles.numpy_canonical_perp(n)), n


def test_rotations_and_su2_are_their_numpy_forms():
    for n in AXES:
        for theta in ANGLES:
            assert same_bytes(rotation(n, theta),
                              oracles.numpy_rotation(n, theta)), (n, theta)
            for sign in (1, -1):
                assert same_bytes(su2(*n, theta, sign),
                                  oracles.numpy_su2(n, theta, sign)), (n, theta, sign)


def test_axis_rotations_are_their_numpy_forms():
    for theta in ANGLES:
        for turn, axis in ((rotation_x, (1.0, 0.0, 0.0)), (rotation_y, (0.0, 1.0, 0.0)),
                           (rotation_z, (0.0, 0.0, 1.0))):
            assert same_bytes(turn(theta), oracles.numpy_rotation(axis, theta)), theta


def test_two_qubit_rotation_is_its_numpy_form():
    firsts = SIGNED_AXES + ZERO_COMPONENT_AXES + HAAR_AXES[:20]
    for n_first, n_second in zip(firsts, HAAR_AXES[-len(firsts):]):
        for theta in ANGLES:
            for pair in ((n_first, n_second), (n_second, n_first)):
                assert same_bytes(two_qubit_rotation(*pair, theta),
                                  oracles.numpy_two_qubit_rotation(*pair, theta))


_angle_pairs = list(zip(ANGLES, reversed(ANGLES)))
CU_SPECS = [ControlledGateSpec(alpha=alpha, theta=theta, axis=n)
            for n, (alpha, theta) in zip(AXES, itertools.cycle(_angle_pairs))]
SPECS = [preset("cnot"), preset("cz"), *CU_SPECS,
         *(preset_barenco(*angles)
           for angles in _rng.uniform(-30.0, 30.0, (50, 3)).tolist())]


def test_spec_vectors_are_the_numpy_perpendicular_as_floats():
    for spec, n in zip(CU_SPECS, AXES):
        assert same_bytes(np.array(spec.axis), np.array(n, dtype=float)), n
        assert same_bytes(np.array(spec.perp), oracles.numpy_canonical_perp(n)), n
        assert all(type(v) is float for v in spec.axis + spec.perp)


def test_canonical_perp_is_its_numpy_form_on_the_golden_and_preset_axes():
    # the cu axes of the golden CLI documents and of the lowering tests
    axes = [(0.0, 0.6, 0.8), (0.6, 0.0, 0.8), (0.0, 0.0, 1.0),
            preset("cnot").axis, preset("cz").axis]
    for n in axes:
        assert same_bytes(canonical_perp(n), oracles.numpy_canonical_perp(n)), n


def test_cu_matrix_is_its_numpy_form():
    for spec in SPECS:
        assert same_bytes(cu_matrix(spec), oracles.numpy_cu_matrix(spec)), spec


def test_barenco_matrix_is_its_numpy_form():
    special = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi]
    for angles in [*itertools.product(special, repeat=3),
                   *_rng.uniform(-30.0, 30.0, (100, 3)).tolist()]:
        assert same_bytes(barenco_matrix(*angles),
                          oracles.numpy_barenco_matrix(*angles)), angles


def test_every_plan_factor_and_product_is_its_numpy_form():
    for spec in SPECS:
        plan = synthesize(spec)
        assert plan.phase == complex(np.exp(0.5j * spec.alpha))
        for name, want in oracles.numpy_plan_matrices(spec).items():
            assert same_bytes(getattr(plan, name), want), (spec, name)


def test_plan_products_are_built_once_and_read_only():
    plan = synthesize(SPECS[5])
    for name in ("pre", "gate_a", "gate_b", "post_plus", "post_minus"):
        assert getattr(plan, name) is getattr(plan, name)
        with pytest.raises(ValueError):
            getattr(plan, name)[0, 0] = 0.0


# the numpy form of every gate table entry's matrix, from its parameters
GATE_ORACLES = {
    "x": lambda p: oracles.PAULI["x"],
    "y": lambda p: oracles.PAULI["y"],
    "z": lambda p: oracles.PAULI["z"],
    "h": lambda p: H,
    "rx": lambda p: oracles.numpy_rotation((1.0, 0.0, 0.0), p["theta"]),
    "ry": lambda p: oracles.numpy_rotation((0.0, 1.0, 0.0), p["theta"]),
    "rz": lambda p: oracles.numpy_rotation((0.0, 0.0, 1.0), p["theta"]),
    "rn": lambda p: oracles.numpy_rotation((p["nx"], p["ny"], p["nz"]), p["theta"]),
    "cnot": lambda p: np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1],
                                [0, 0, 1, 0]], dtype=complex),
    "cz": lambda p: np.diag([1, 1, 1, -1]).astype(complex),
    "cu": lambda p: oracles.numpy_cu_matrix(GATES["cu"].spec(p)),
    "barenco": lambda p: oracles.numpy_barenco_matrix(p["alpha"], p["phi"], p["theta"]),
}


@pytest.mark.parametrize("name", sorted(GATES))
def test_every_gate_matrix_is_its_numpy_form(name):
    gate = GATES[name]
    for axis, angle in zip(SIGNED_AXES + ZERO_COMPONENT_AXES + HAAR_AXES[:40],
                           itertools.cycle(ANGLES)):
        params = dict(zip(("nx", "ny", "nz"), axis))
        params.update(alpha=-angle, theta=angle, phi=0.5 * angle)
        params = {p: params[p] for p in gate.params}
        assert same_bytes(gate.matrix(params), GATE_ORACLES[name](params)), params
