import math
import re
from itertools import permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from switchsynth.linalg import (
    MAX_QUBITS,
    MAX_TRIALS,
    UNITARY_ATOL,
    H,
    I2,
    X,
    Y,
    Z,
    PLUS,
    apply_matrix,
    apply_ordered,
    axis_orders,
    basis_state,
    bloch_dot,
    canonical_perp,
    dagger,
    distance_up_to_phase,
    fidelity,
    is_density_matrix,
    is_unitary,
    matvecs,
    normalize,
    operator_schmidt_rank,
    operator_schmidt_values,
    projector,
    realign,
    require_angle,
    require_tolerance,
    require_trials,
    rotation,
    rotation_z,
    tensor,
    two_qubit_rotation,
    unitarity_residual,
    zero_state,
)
from switchsynth.sampling import random_states, random_unitary

import oracles

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def test_tensor_trivial_block():
    expected = np.zeros((4, 4), dtype=complex)
    expected[0:2, 0:2] = X
    expected[2:4, 2:4] = X
    assert_allclose(tensor(I2, X), expected, atol=0)


def test_tensor_mixed_product_property():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        a, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(2))
        b, d = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                for _ in range(2))
        assert np.linalg.norm(tensor(a, b) @ tensor(c, d)
                              - tensor(a @ c, b @ d)) < 1e-12


@pytest.mark.parametrize("shapes", [
    [(2, 2), (2, 2)],
    [(4, 4), (2, 2)],
    [(2, 2), (4, 4)],
    [(2, 2), (4, 4), (2, 2)],
    [(2,), (4,)],
    [(2, 3), (3, 2)],
], ids=["2x2_2x2", "4x4_2x2", "2x2_4x4", "three_factors", "vectors",
        "non_square"])
def test_tensor_is_bit_identical_to_kron(shapes):
    rng = np.random.default_rng(len(shapes) * 10 + shapes[0][0])
    factors = [rng.standard_normal(s) + 1j * rng.standard_normal(s)
               for s in shapes]
    expected = factors[0]
    for f in factors[1:]:
        expected = np.kron(expected, f)
    out = tensor(*factors)
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


def test_tensor_needs_a_factor():
    with pytest.raises(ValueError):
        tensor()


@pytest.mark.parametrize("axis,expected", [
    ((1.0, 0.0, 0.0), "x"),
    ((0.0, 1.0, 0.0), "y"),
    ((0.0, 0.0, 1.0), "z"),
])
def test_bloch_dot_axes(axis, expected):
    assert_allclose(bloch_dot(axis), oracles.PAULI[expected], atol=0)


def test_bloch_dot_diagonal_axis_squares_to_identity():
    n = (1 / np.sqrt(2), 0.0, 1 / np.sqrt(2))
    m = bloch_dot(n)
    assert_allclose(m, (X + Z) / np.sqrt(2), atol=1e-15)
    assert_allclose(m @ m, I2, atol=1e-12)


def test_bloch_dot_rejects_non_unit():
    with pytest.raises(ValueError):
        bloch_dot((1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        bloch_dot((1.0, 0.0))


def test_rotation_z_quarter_turn():
    expected = np.diag([np.exp(-0.25j * np.pi), np.exp(0.25j * np.pi)])
    assert_allclose(rotation_z(np.pi / 2), expected, atol=1e-15)


def test_rotation_half_turn_is_axis_times_minus_i():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        assert_allclose(rotation(n, np.pi), -1j * bloch_dot(n), atol=1e-14)


def test_rotation_composition_same_axis():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        t1, t2 = rng.uniform(-6, 6, size=2)
        composed = rotation(n, t1) @ rotation(n, t2)
        assert np.linalg.norm(composed - rotation(n, t1 + t2)) < 1e-12
        assert distance_up_to_phase(composed, rotation(n, t1 + t2)) < 1e-12


def test_rotation_unitary():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        assert is_unitary(rotation(n, rng.uniform(-7, 7)))


def test_two_qubit_rotation_zz_is_diagonal():
    theta = 0.83
    got = two_qubit_rotation((0, 0, 1), (0, 0, 1), theta)
    expected = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta),
                        np.exp(0.5j * theta), np.exp(-0.5j * theta)])
    assert_allclose(got, expected, atol=1e-15)


def test_two_qubit_rotation_matches_exponential():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n1 = rng.standard_normal(3)
        n1 /= np.linalg.norm(n1)
        n2 = rng.standard_normal(3)
        n2 /= np.linalg.norm(n2)
        theta = rng.uniform(-6, 6)
        generator = tensor(bloch_dot(n1), bloch_dot(n2))
        assert_allclose(two_qubit_rotation(n1, n2, theta),
                        expm(-0.5j * theta * generator), atol=1e-12)


def test_distance_up_to_phase_ignores_global_phase():
    rng = np.random.default_rng(29)
    for _ in range(100):
        u = oracles.haar_unitary(rng, 4)
        phi = rng.uniform(0, 2 * np.pi)
        assert distance_up_to_phase(u, np.exp(1j * phi) * u) < 1e-13


def test_distance_up_to_phase_x_z_is_two():
    assert distance_up_to_phase(X, Z) == pytest.approx(2.0, abs=1e-14)


def test_distance_up_to_phase_matches_closed_form():
    rng = np.random.default_rng(31)
    for _ in range(100):
        u = oracles.haar_unitary(rng, 3)
        v = oracles.haar_unitary(rng, 3)
        closed = np.sqrt(max(
            np.linalg.norm(u) ** 2 + np.linalg.norm(v) ** 2
            - 2 * abs(np.trace(dagger(u) @ v)), 0.0))
        assert distance_up_to_phase(u, v) == pytest.approx(closed, abs=1e-10)


def test_distance_up_to_phase_shape_mismatch():
    with pytest.raises(ValueError):
        distance_up_to_phase(X, np.eye(4))


def test_realign_restores_tensor_structure():
    rng = np.random.default_rng(37)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    got = realign(tensor(a, b))
    assert_allclose(got, np.outer(a.reshape(-1), b.reshape(-1)), atol=1e-14)


def test_operator_schmidt_rank_of_cnot_is_two():
    assert operator_schmidt_rank(CNOT) == 2
    assert oracles.realignment_rank(CNOT) == 2


def test_operator_schmidt_values_match_oracle_realignment():
    rng = np.random.default_rng(41)
    for _ in range(100):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert operator_schmidt_rank(m) == oracles.realignment_rank(m)


def test_operator_schmidt_rank_tensor_products():
    rng = np.random.default_rng(43)
    for _ in range(100):
        a = oracles.haar_unitary(rng, 2)
        b = oracles.haar_unitary(rng, 2)
        assert operator_schmidt_rank(tensor(a, b)) == 1


def test_operator_schmidt_rank_zero_matrix():
    assert operator_schmidt_rank(np.zeros((4, 4))) == 0


def test_operator_schmidt_values_descending():
    values = operator_schmidt_values(CNOT)
    assert np.all(np.diff(values) <= 1e-15)


def test_operator_schmidt_rank_rejects_wrong_shape():
    with pytest.raises(ValueError):
        operator_schmidt_rank(np.eye(8))


@pytest.mark.parametrize("axis,expected", [
    ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
    ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
    ((0.0, 0.0, -1.0), (1.0, 0.0, 0.0)),
    ((0.6, 0.8, 0.0), (0.0, 0.0, 1.0)),
])
def test_canonical_perp_named_cases(axis, expected):
    assert_allclose(canonical_perp(axis), expected, atol=1e-15)


def test_canonical_perp_is_orthogonal_unit():
    rng = np.random.default_rng(47)
    for _ in range(300):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        p = canonical_perp(n)
        assert abs(p @ p - 1.0) < 1e-12
        assert abs(p @ n) < 1e-10


def test_apply_matrix_matches_kron_embedding():
    rng = np.random.default_rng(53)
    for _ in range(50):
        state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        u = oracles.haar_unitary(rng, 2)
        assert_allclose(apply_matrix(state, u, [0]),
                        tensor(u, I2, I2) @ state, atol=1e-12)
        assert_allclose(apply_matrix(state, u, [2]),
                        tensor(I2, I2, u) @ state, atol=1e-12)
        v = oracles.haar_unitary(rng, 4)
        assert_allclose(apply_matrix(state, v, [0, 1]),
                        tensor(v, I2) @ state, atol=1e-12)


def moveaxis_apply(state, matrix, qubits):
    """apply_matrix as written with np.moveaxis, the reference for its bytes."""
    n = state.size.bit_length() - 1
    front = list(range(len(qubits)))
    psi = np.moveaxis(state.reshape([2] * n), qubits, front)
    psi = (matrix @ psi.reshape(matrix.shape[0], -1)).reshape([2] * n)
    return np.moveaxis(psi, front, qubits).reshape(-1)


def test_apply_matrix_is_bit_identical_to_moveaxis_reference():
    rng = np.random.default_rng(54)
    for n in range(1, 7):
        state = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
        for k in range(1, min(n, 3) + 1):
            u = oracles.haar_unitary(rng, 2 ** k)
            for qubits in permutations(range(n), k):
                out = apply_matrix(state, u, qubits)
                assert out.tobytes() == moveaxis_apply(state, u, qubits).tobytes()


def test_apply_matrix_qubit_order_matters():
    state = basis_state(2, 2)  # |10>
    swapped = apply_matrix(state, CNOT, [1, 0])  # control is qubit 1
    assert_allclose(swapped, basis_state(2, 2), atol=1e-15)
    straight = apply_matrix(state, CNOT, [0, 1])
    assert_allclose(straight, basis_state(2, 3), atol=1e-15)


def test_apply_matrix_errors():
    state = zero_state(2)
    with pytest.raises(ValueError):
        apply_matrix(state, CNOT, [0, 0])
    with pytest.raises(ValueError):
        apply_matrix(state, CNOT, [0, 2])
    with pytest.raises(ValueError):
        apply_matrix(state, X, [0, 1])


# a count, an index or a qubit is an int or a numpy integer, never a bool
@pytest.mark.parametrize("call,message", [
    (lambda: basis_state(2, True), "index must be an integer, got True"),
    (lambda: basis_state(2, np.True_), "index must be an integer, got np.True_"),
    (lambda: basis_state(2, 1.5), "index must be an integer, got 1.5"),
    (lambda: basis_state(-1, 0), "num_qubits must be a non-negative integer, got -1"),
    (lambda: zero_state(2.0), "num_qubits must be a non-negative integer, got 2.0"),
    (lambda: zero_state(True), "num_qubits must be a non-negative integer, got True"),
    (lambda: zero_state(MAX_QUBITS + 1),
     f"num_qubits {MAX_QUBITS + 1} exceeds the maximum of {MAX_QUBITS}"),
    (lambda: zero_state(10 ** 12), f"num_qubits {10 ** 12} exceeds the maximum of {MAX_QUBITS}"),
    (lambda: apply_matrix(zero_state(2), X, [True]),
     "qubit indices must be integers, got (True,)"),
    (lambda: apply_matrix(zero_state(2), X, [0.0]),
     "qubit indices must be integers, got (0.0,)"),
], ids=["bool_index", "numpy_bool_index", "float_index", "negative_count",
        "float_count", "bool_count", "count_above_max", "huge_count", "bool_qubit",
        "float_qubit"])
def test_states_and_apply_matrix_take_only_integers(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_numpy_integers_stay_accepted_bit_for_bit():
    two, three = np.int64(2), np.uint8(3)
    assert oracles.same_bytes(basis_state(two, three), basis_state(2, 3))
    assert oracles.same_bytes(zero_state(two), zero_state(2))
    state = normalize(np.arange(4) + 1j)
    assert oracles.same_bytes(apply_matrix(state, H, [np.int32(1)]),
                              apply_matrix(state, H, [1]))


def test_states_and_fidelity():
    assert_allclose(basis_state(2, 3), [0, 0, 0, 1], atol=0)
    with pytest.raises(ValueError):
        basis_state(1, 2)
    psi = normalize(np.array([1.0, 1j]))
    assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-14)
    assert fidelity(psi, np.exp(0.7j) * psi) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        normalize(np.zeros(2))


def test_density_checks():
    assert is_density_matrix(projector(normalize(np.array([1.0, 2j]))))
    assert is_density_matrix(np.eye(2) / 2)
    assert not is_density_matrix(np.eye(2))  # trace 2
    assert not is_density_matrix(np.array([[1.5, 0], [0, -0.5]]))  # negative
    assert not is_density_matrix(np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not hermitian
    # eigvalsh reads [0, -0] for the first and the checks' comparisons are
    # False for NaN: finite entries are checked first
    assert not is_density_matrix(np.array([[1, 0], [0, np.nan]]))
    assert not is_density_matrix(np.array([[0.5, np.nan], [np.nan, 0.5]]))
    assert not is_density_matrix(np.array([[1, np.inf], [np.inf, 0]]))


def _density_corpus():
    """Square matrices of sizes 1-4 and 8, grouped by size: random densities,
    non-finite entries and cases a few ulps either side of each threshold."""
    from switchsynth.linalg import DENSITY_ATOL
    from switchsynth.sampling import random_density

    rng = np.random.default_rng(17)
    groups = {d: [random_density(rng, d) for _ in range(12)] for d in (1, 2, 3, 4)}
    for d, group in groups.items():
        for bad in (np.nan, np.inf, -np.inf):
            for entry in ((0, 0), (d - 1, 0), (0, d - 1)):
                for value in (bad, complex(0.0, bad)):
                    m = random_density(rng, d)
                    m[entry] = value
                    group.append(m)
        u = random_unitary(rng, d)
        for low in (-2e-9, -5e-10, 0.0):  # smallest eigenvalue
            group.append(u @ np.diag([1.0 - low] + [0.0] * (d - 2) + [low])[:d, :d]
                         @ u.conj().T)
        for off in (2e-10, 5e-11, -2e-10, 2e-10j, 5e-11j):  # trace off 1
            group.append(np.eye(d) / d + off * np.eye(d)[0][:, None] * np.eye(d)[0])
    # Hermitian residual ||m - m^dag||_F = 2 sqrt(2) t, with t a few ulps
    # either side of DENSITY_ATOL / (2 sqrt(2))
    t0 = DENSITY_ATOL / (2.0 * math.sqrt(2.0))
    for d in (2, 3, 4):
        for ulps in range(-6, 7):
            t = t0 * (1.0 + ulps * 2.0 ** -52)
            for skew in (np.array([[0, t], [-t, 0]]), np.array([[0, 1j * t], [1j * t, 0]])):
                m = np.eye(d, dtype=complex) / d
                m[:2, :2] += skew
                groups[d].append(m)
    groups[1] += [np.array([[v]]) for v in (1.0, 1.0 + 2e-10, 1.0 + 5e-11, 0.5, 1j, np.nan)]
    # at size 8 an imaginary diagonal passes the Hermitian check (residual
    # 2 sqrt(8) eps) yet moves the trace's imaginary part by 8 eps
    groups[8] = [random_density(rng, 8) for _ in range(3)]
    for scale in (0.99, 1.01):
        eps = scale * DENSITY_ATOL / (2.0 * math.sqrt(8.0))
        groups[8] += [np.eye(8) * complex(0.125, eps), np.eye(8) * complex(0.125, eps / 8)]
    # a trace in the last bit above 1 + DENSITY_ATOL, whose diagonal summed
    # down a Fortran-ordered stack lands the other side of it
    groups[8].append(np.diag([
        0.19061908613395895, 0.19111104387221747, 0.14211142083838854, 0.10367665312627511,
        0.06484895488612703, 0.12001473223396913, 0.12421855460198847, 0.0633995544070752]))
    return groups


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("atol", [1e-10, 1e-9, 2.0])
def test_stacked_density_check_matches_the_single_matrix_checks(atol):
    seen = set()
    for d, group in _density_corpus().items():
        want = [oracles.single_density_check(m, atol) for m in group]
        assert [is_density_matrix(m, atol) for m in group] == want
        assert all(type(is_density_matrix(m, atol)) is bool for m in group)
        for stack in (np.stack(group), np.asfortranarray(np.stack(group))):
            got = is_density_matrix(stack, atol)
            assert got.dtype == bool and got.tolist() == want
        assert is_density_matrix(np.empty((0, d, d))).shape == (0,)
        seen.update(want)
    assert seen == {True, False}
    # no other shape is a density, and a non-square stack is none of them
    for shape in ((2, 3), (3,), (), (1, 2, 2, 2)):
        assert is_density_matrix(np.full(shape, 0.5)) is False
    assert is_density_matrix(np.full((3, 2, 1), 0.5)).tolist() == [False] * 3


def test_hadamard_and_unitary_check():
    assert is_unitary(H)
    assert_allclose(H @ H, I2, atol=1e-15)
    assert not is_unitary(1.001 * H)
    assert not is_unitary(np.array([[1, 1], [0, 1]], dtype=complex))
    assert_allclose(H @ X @ H, Z, atol=1e-15)
    assert_allclose(dagger(Y), Y, atol=0)


def test_stacked_fidelity_is_the_per_pair_fidelity_bitwise():
    rng = np.random.default_rng(12)
    a = random_states(rng, 3, 200)
    b = random_states(rng, 3, 200)
    stacked = fidelity(a, b)
    assert stacked.shape == (200,)
    expected = np.array([float(abs(np.vdot(x, y)) ** 2) for x, y in zip(a, b)])
    assert stacked.tobytes() == expected.tobytes()
    assert repr(fidelity(a[0], b[0])) == repr(float(expected[0]))


def test_matvecs_is_the_per_state_product_bitwise():
    rng = np.random.default_rng(5)
    m = random_unitary(rng, 8)
    states = random_states(rng, 3, 40)
    expected = np.array([m @ s for s in states])
    assert matvecs(m, states).tobytes() == expected.tobytes()


def test_require_trials_accepts_1_to_max_trials():
    assert require_trials(1) == 1
    assert require_trials(MAX_TRIALS) == MAX_TRIALS
    with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
        require_trials(0)
    with pytest.raises(ValueError, match=f"trials must be at most {MAX_TRIALS}, "
                                         f"got {MAX_TRIALS + 1}"):
        require_trials(MAX_TRIALS + 1)


@pytest.mark.parametrize("rows", [1, 2, 3, 64])
def test_stacked_apply_ordered_is_the_one_state_call_per_row_bitwise(rows):
    rng = np.random.default_rng(55)
    for n in range(1, 7):
        states = random_states(rng, n, rows)
        for k in range(1, min(n, 3) + 1):
            u = oracles.haar_unitary(rng, 2 ** k)
            for qubits in permutations(range(n), k):
                out = apply_ordered(states, u, *axis_orders(qubits, n))
                assert out.shape == states.shape
                expected = np.array([apply_matrix(s, u, qubits) for s in states])
                assert out.tobytes() == expected.tobytes()


def test_tensor_of_a_stack_and_a_vector_is_each_row_tensored_bitwise():
    rng = np.random.default_rng(56)
    states = random_states(rng, 3, 20)
    out = tensor(states, PLUS)
    assert out.tobytes() == np.array([tensor(s, PLUS) for s in states]).tobytes()
    assert out.tobytes() == np.kron(states, PLUS).tobytes()


def test_stacked_is_unitary_is_one_call_per_matrix_bitwise():
    rng = np.random.default_rng(61)
    for dim in (2, 4):
        haar = [oracles.haar_unitary(rng, dim) for _ in range(40)]
        # (sU)^dag (sU) - I = (s^2 - 1) I, of norm |s^2 - 1| sqrt(dim)
        scales = [math.sqrt(1.0 + f * UNITARY_ATOL / math.sqrt(dim))
                  for f in (0.5, 0.9, 1.1, 2.0, -0.5, -2.0)]
        mats = np.array(haar + [s * u for s in scales for u in haar[:5]])
        residuals = unitarity_residual(mats)
        assert residuals.shape == (len(mats),)
        one = [unitarity_residual(m) for m in mats]
        assert residuals.tobytes() == np.array(one).tobytes()
        # the Frobenius norm of the definition, bit for bit
        assert residuals.tobytes() == np.array(
            [np.linalg.norm(dagger(m) @ m - np.eye(dim)) for m in mats]).tobytes()
        flags = is_unitary(mats)
        assert flags.tolist() == [is_unitary(m) for m in mats]
        assert all(type(is_unitary(m)) is bool for m in mats[:3])
        inside = [abs(f) < 1 for f in (0.5, 0.9, 1.1, 2.0, -0.5, -2.0)]
        assert flags.tolist() == [True] * 40 + [ok for ok in inside for _ in range(5)]


def test_unitarity_residual_refuses_non_square_input():
    with pytest.raises(ValueError, match="must be square"):
        unitarity_residual(np.ones((2, 3)))
    with pytest.raises(ValueError, match="must be square"):
        is_unitary(np.ones((4, 2, 3)))


@pytest.mark.parametrize("first,second", [((2,), (2, 2)), ((4,), (3, 2, 2)),
                                          ((2, 2), ()), ((), (2, 2))])
def test_tensor_refuses_mixed_ranks_naming_both_shapes(first, second):
    a, b = np.ones(first, dtype=complex), np.ones(second, dtype=complex)
    message = re.escape(f"tensor() cannot multiply shapes {first} and {second}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        tensor(a, b)


@pytest.mark.parametrize("value", [0, -3, 2 ** 60, 0.25, -1e300, np.int64(7), np.uint8(3),
                                   np.float32(0.3), np.float64(-2.5)])
def test_require_angle_returns_a_real_as_a_float(value):
    angle = require_angle(value, "phi")
    assert type(angle) is float
    assert angle == float(value)


@pytest.mark.parametrize("value,message", [
    ("1", "phi must be a real number, got '1'"),
    (None, "phi must be a real number, got None"),
    (True, "phi must be a real number, got True"),
    (np.bool_(False), "phi must be a real number, got np.False_"),
    (1 + 0j, "phi must be a real number, got (1+0j)"),
    (np.array(0.5), "phi must be a real number, got array(0.5)"),
    (math.nan, "phi must be finite, got nan"),
    (-math.inf, "phi must be finite, got -inf"),
    (10 ** 400, "phi must be finite, got inf"),
    (-(10 ** 400), "phi must be finite, got -inf"),
], ids=["str", "none", "bool", "numpy_bool", "complex", "array", "nan", "minus_inf",
        "huge_int", "huge_negative_int"])
def test_require_angle_names_the_argument(value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        require_angle(value, "phi")


@pytest.mark.parametrize("value,shown", [
    (10 ** 400, "inf"), (-(10 ** 400), "-inf"), (np.float64(-1e-9), "-1e-09"), (-1, "-1.0"),
    (math.nan, "nan"), (math.inf, "inf"),
], ids=["huge_int", "huge_negative_int", "numpy", "int", "nan", "inf"])
def test_require_tolerance_names_the_converted_value(value, shown):
    message = f"tolerance must be finite and at least 0, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        require_tolerance(value)
