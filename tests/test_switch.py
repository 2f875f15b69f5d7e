import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from switchsynth import synthesis
from switchsynth.linalg import I2, PLUS, X, Y, Z, basis_state, dagger, normalize, tensor
from switchsynth.sampling import random_state, random_states, random_unitary
from switchsynth.switch import (
    apply_switch,
    branch_functionals,
    branch_gates,
    branch_gates_tensor,
    measure_ancilla,
    project_branches,
    switch_unitary,
)

import oracles

SQRT_HALF = np.sqrt(0.5)


def test_switch_unitary_x_z_frozen():
    joint = switch_unitary(X, Z)
    expected = np.array([[0, 0, -1, 0],
                         [0, 0, 0, 1],
                         [1, 0, 0, 0],
                         [0, -1, 0, 0]], dtype=complex)
    assert joint.target_dim == 2
    assert_allclose(joint.matrix, expected, atol=0)


def test_switch_unitary_halved_form():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = random_unitary(rng, 2)
        b = random_unitary(rng, 2)
        joint = switch_unitary(a, b)
        anti = a @ b + b @ a
        comm = a @ b - b @ a
        half = 0.5 * (tensor(anti, I2) + tensor(comm, Z))
        assert np.linalg.norm(joint.matrix - half) < 1e-13
        assert np.linalg.norm(dagger(joint.matrix) @ joint.matrix - np.eye(4)) < 1e-12


def test_switch_unitary_commuting_pair_ignores_control():
    joint = switch_unitary(Z, 1j * Z @ Z)
    assert_allclose(joint.matrix, tensor(1j * Z, I2), atol=1e-15)


def test_switch_unitary_input_validation():
    with pytest.raises(ValueError):
        switch_unitary(X, 2 * Z)
    with pytest.raises(ValueError):
        switch_unitary(X, np.eye(4))


def test_apply_switch_x_z_example():
    joint = switch_unitary(X, Z)
    out = apply_switch(joint, basis_state(1, 0), PLUS)
    assert_allclose(out, [0.0, 0.0, SQRT_HALF, -SQRT_HALF], atol=1e-15)


def test_apply_switch_control_zero_is_plain_product():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = random_unitary(rng, 2)
        b = random_unitary(rng, 2)
        psi = random_state(rng, 1)
        joint = switch_unitary(a, b)
        out = apply_switch(joint, psi, basis_state(1, 0))
        assert_allclose(out, np.kron(a @ b @ psi, basis_state(1, 0)), atol=1e-12)
        out = apply_switch(joint, psi, basis_state(1, 1))
        assert_allclose(out, np.kron(b @ a @ psi, basis_state(1, 1)), atol=1e-12)


def test_apply_switch_dimension_errors():
    joint = switch_unitary(X, Z)
    with pytest.raises(ValueError):
        apply_switch(joint, basis_state(2, 0), PLUS)
    with pytest.raises(ValueError):
        apply_switch(joint, basis_state(1, 0), basis_state(2, 0))


def test_branch_functionals_are_unconjugated_coefficients():
    theta = 0.9
    f_plus, f_minus = branch_functionals(theta)
    assert_allclose(f_plus, [np.cos(theta / 2), 1j * np.sin(theta / 2)], atol=0)
    assert_allclose(f_minus, [1j * np.sin(theta / 2), np.cos(theta / 2)], atol=0)


def test_measure_ancilla_theta_zero_separates_orders():
    joint = switch_unitary(X, Z)
    staged = apply_switch(joint, basis_state(1, 0), PLUS)
    plus, minus = measure_ancilla(staged, 0.0)
    assert plus.branch == "plus" and minus.branch == "minus"
    assert plus.probability == pytest.approx(0.5, abs=1e-14)
    assert minus.probability == pytest.approx(0.5, abs=1e-14)
    # theta = 0 resolves the order: X Z |0> = |1>, Z X |0> = -|1>
    assert_allclose(plus.post_state, [0.0, 1.0], atol=1e-14)
    assert_allclose(minus.post_state, [0.0, -1.0], atol=1e-14)


def test_measure_ancilla_matches_projector_oracle():
    rng = np.random.default_rng(19)
    for num_qubits in (2, 3):
        for _ in range(100):
            state = random_state(rng, num_qubits)
            theta = rng.uniform(-2 * np.pi, 2 * np.pi)
            plus, minus = measure_ancilla(state, theta)
            (op, vp), (om, vm) = oracles.projector_measurement(state, theta)
            assert plus.probability == pytest.approx(op, abs=1e-12)
            assert minus.probability == pytest.approx(om, abs=1e-12)
            assert plus.probability + minus.probability == pytest.approx(1.0, abs=1e-12)
            for got, want in ((plus.post_state, vp), (minus.post_state, vm)):
                overlap = abs(np.vdot(want, got))
                assert overlap == pytest.approx(1.0, abs=1e-10)


def test_measure_ancilla_zero_probability_branch():
    theta = 0.7
    f_plus, _ = branch_functionals(theta)
    # ancilla state paired to zero against f_plus
    dead = normalize(np.array([f_plus[1], -f_plus[0]]))
    state = np.kron(basis_state(1, 1), dead)
    plus, minus = measure_ancilla(state, theta)
    assert plus.probability == 0.0
    assert plus.post_state is None
    assert minus.probability == pytest.approx(1.0, abs=1e-12)


def test_measure_ancilla_rejects_bad_states():
    with pytest.raises(ValueError):
        measure_ancilla(np.array([1.0, 1.0]), 0.0)
    with pytest.raises(ValueError):
        measure_ancilla(np.array([1.0]), 0.0)
    with pytest.raises(ValueError, match="^state length 3 is not a power of two$"):
        measure_ancilla(np.ones(3) / np.sqrt(3), 0.0)


@pytest.mark.parametrize("shape", [(1, 4), (2, 2)])
def test_measure_ancilla_reads_its_state_flat(shape):
    state = random_state(np.random.default_rng(23), 2)
    want = measure_ancilla(state, 0.4)
    got = measure_ancilla(state.reshape(shape), 0.4)
    for g, w in zip(got, want):
        assert (g.branch, g.probability) == (w.branch, w.probability)
        assert g.post_state.tobytes() == w.post_state.tobytes()


def test_branch_gates_formula_and_completeness():
    rng = np.random.default_rng(23)
    for dim in (2, 4):
        for _ in range(100):
            a = random_unitary(rng, dim)
            b = random_unitary(rng, dim)
            theta = rng.uniform(-2 * np.pi, 2 * np.pi)
            s_plus, s_minus = branch_gates(a, b, theta)
            c, s = np.cos(theta / 2), np.sin(theta / 2)
            assert_allclose(s_plus, c * a @ b + 1j * s * b @ a, atol=1e-13)
            assert_allclose(s_minus, 1j * s * a @ b + c * b @ a, atol=1e-13)
            total = dagger(s_plus) @ s_plus + dagger(s_minus) @ s_minus
            assert np.linalg.norm(total - 2 * np.eye(dim)) < 1e-12


def test_branch_gates_are_measurement_conditionals():
    # measuring the switched state at theta must produce S_pm psi (normalized)
    rng = np.random.default_rng(29)
    for _ in range(50):
        a = random_unitary(rng, 2)
        b = random_unitary(rng, 2)
        theta = rng.uniform(0.2, np.pi - 0.2)
        psi = random_state(rng, 1)
        staged = apply_switch(switch_unitary(a, b), psi, PLUS)
        plus, minus = measure_ancilla(staged, theta)
        s_plus, s_minus = branch_gates(a, b, theta)
        for outcome, gate in ((plus, s_plus), (minus, s_minus)):
            want = gate @ psi / np.sqrt(2)
            norm = np.linalg.norm(want)
            assert outcome.probability == pytest.approx(norm ** 2, abs=1e-12)
            assert_allclose(outcome.post_state, want / norm, atol=1e-10)


def test_branch_gates_tensor_matches_dense():
    rng = np.random.default_rng(31)
    for n in (2, 3):
        for _ in range(100):
            a_list = [random_unitary(rng, 2) for _ in range(n)]
            b_list = [random_unitary(rng, 2) for _ in range(n)]
            theta = rng.uniform(-2 * np.pi, 2 * np.pi)
            got = branch_gates_tensor(a_list, b_list, theta)
            want = branch_gates(tensor(*a_list), tensor(*b_list), theta)
            for g, w in zip(got, want):
                assert np.linalg.norm(g - w) < 1e-12


def test_branch_gates_tensor_validation():
    with pytest.raises(ValueError):
        branch_gates_tensor([], [], 0.0)
    with pytest.raises(ValueError):
        branch_gates_tensor([X], [X, Z], 0.0)
    with pytest.raises(ValueError):
        branch_gates_tensor([np.eye(4)], [np.eye(4)], 0.0)


def test_branch_gates_commuting_pair_collapses():
    # commuting pair: both branches proportional to the common product
    s_plus, s_minus = branch_gates(Z, 1j * I2, np.pi / 3)
    phase = np.cos(np.pi / 6) + 1j * np.sin(np.pi / 6)
    assert_allclose(s_plus, phase * (1j * Z), atol=1e-14)
    assert_allclose(s_minus, phase * (1j * Z), atol=1e-14)


def test_branch_gates_anticommuting_pair_stays_unitary():
    # anticommuting pair: S_pm = (cos -+ i sin)(theta/2) AB is unitary for all theta
    rng = np.random.default_rng(37)
    for _ in range(100):
        theta = rng.uniform(-2 * np.pi, 2 * np.pi)
        s_plus, s_minus = branch_gates(X, Y, theta)
        for m in (s_plus, s_minus):
            assert np.linalg.norm(dagger(m) @ m - I2) < 1e-13


def test_project_branches_of_a_stack_is_each_state_measured():
    rng = np.random.default_rng(19)
    states = random_states(rng, 3, 30)
    functionals = branch_functionals(0.9)
    (p_plus, post_plus), (p_minus, post_minus) = project_branches(states,
                                                                  functionals)
    for i, state in enumerate(states):
        plus, minus = measure_ancilla(state, 0.9)
        assert repr((plus.probability, minus.probability)) == repr(
            (float(p_plus[i]), float(p_minus[i])))
        assert plus.post_state.tobytes() == post_plus[i].tobytes()
        assert minus.post_state.tobytes() == post_minus[i].tobytes()


def test_project_branches_checks_each_stacked_state():
    states = random_states(np.random.default_rng(4), 2, 6)
    functionals = branch_functionals(0.3)
    project_branches(states, functionals)
    # one row up, one down: the stack's total squared norm stays 6
    states[0] *= 1.0 + 1e-6
    states[5] *= np.sqrt(2.0 - (1.0 + 1e-6) ** 2)
    with pytest.raises(ValueError, match="state is not normalized"):
        project_branches(states, functionals)


@pytest.mark.parametrize("state", [[np.nan, 0.0], [1.0, np.nan * 1j]])
def test_measure_ancilla_rejects_nan_states(state):
    with pytest.raises(ValueError, match="state is not normalized"):
        measure_ancilla(np.array(state), 0.0)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", ["measure_ancilla", "branch_functionals", "branch_gates",
                                  "branch_gates_tensor"])
def test_switch_refuses_a_non_finite_angle_by_name(call, theta):
    a, b = random_unitary(np.random.default_rng(1), 2), X
    run = {
        "measure_ancilla": lambda: measure_ancilla(tensor(basis_state(1, 0), PLUS), theta),
        "branch_functionals": lambda: branch_functionals(theta),
        "branch_gates": lambda: branch_gates(a, b, theta),
        "branch_gates_tensor": lambda: branch_gates_tensor([a, a], [b, b], theta),
    }[call]
    with pytest.raises(ValueError, match=f"^theta must be finite, got {theta}$"):
        run()


@pytest.mark.parametrize("theta,message", [
    ("1", "theta must be a real number, got '1'"),
    (None, "theta must be a real number, got None"),
    (True, "theta must be a real number, got True"),
    (10 ** 400, "theta must be finite, got inf"),
], ids=["str", "none", "bool", "huge_int"])
@pytest.mark.parametrize("call", ["measure_ancilla", "branch_functionals", "branch_gates",
                                  "branch_gates_tensor"])
def test_switch_refuses_an_angle_that_is_not_a_real_number_by_name(call, theta, message):
    a, b = random_unitary(np.random.default_rng(1), 2), X
    run = {
        "measure_ancilla": lambda: measure_ancilla(tensor(basis_state(1, 0), PLUS), theta),
        "branch_functionals": lambda: branch_functionals(theta),
        "branch_gates": lambda: branch_gates(a, b, theta),
        "branch_gates_tensor": lambda: branch_gates_tensor([a, a], [b, b], theta),
    }[call]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run()


@pytest.mark.parametrize("theta", [1, np.int64(-3), np.float32(0.3)])
def test_branch_functionals_of_an_int_or_numpy_real_are_those_of_its_float(theta):
    for got, want in zip(branch_functionals(theta), branch_functionals(float(theta))):
        assert got.tobytes() == want.tobytes()


# (a, b, message): a's shape, a's unitarity, b's shape, b's unitarity, then
# the shapes' mismatch, so each pair names its first fault in that order
PAIR_FAULTS = [
    (np.ones((2, 3)), X, "a must be square, got shape (2, 3)"),
    (X, np.ones((2, 3)), "b must be square, got shape (2, 3)"),
    (2 * X, Z, "a is not unitary within 1e-10"),
    (X, 2 * Z, "b is not unitary within 1e-10"),
    (2 * X, 2 * Z, "a is not unitary within 1e-10"),
    (2 * X, np.ones((2, 3)), "a is not unitary within 1e-10"),
    (X, np.eye(4), "dimension mismatch: (2, 2) vs (4, 4)"),
]


@pytest.mark.parametrize("a,b,message", PAIR_FAULTS, ids=[
    "a_not_square", "b_not_square", "a_not_unitary", "b_not_unitary",
    "both_not_unitary", "a_not_unitary_b_not_square", "two_shapes"])
@pytest.mark.parametrize("call", ["switch_unitary", "branch_gates", "verify_synthesis"])
def test_every_switched_pair_names_its_first_fault(monkeypatch, call, a, b, message):
    # a (1, 1) control factor makes a plan's gate the target factor itself
    one = np.ones((1, 1))
    plan = dataclasses.replace(synthesis.synthesize(synthesis.preset("cnot")),
                               a_control=one, a_target=a, b_control=one, b_target=b)
    monkeypatch.setattr(synthesis, "synthesize", lambda spec: plan)
    run = {
        "switch_unitary": lambda: switch_unitary(a, b),
        "branch_gates": lambda: branch_gates(a, b, 0.3),
        "verify_synthesis": lambda: synthesis.verify_synthesis(
            synthesis.preset("cnot"), trials=2),
    }[call]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run()


@pytest.mark.parametrize("call", ["switch_unitary", "branch_gates"])
def test_a_non_unitary_a_is_named_before_a_ragged_b(call):
    # a is judged whole before b is read, so b's ragged rows are never seen
    # (a plan cannot hold a ragged gate, so verify_synthesis has no such row)
    a, b = 2 * X, [[1, 2], [3]]
    run = {
        "switch_unitary": lambda: switch_unitary(a, b),
        "branch_gates": lambda: branch_gates(a, b, 0.3),
    }[call]
    with pytest.raises(ValueError, match=r"^a is not unitary within 1e-10$"):
        run()
