"""Dense complex linear algebra for few-qubit systems.

Conventions used throughout the package:

- matrices and states are plain numpy arrays with complex entries;
- a state on n qubits is a length 2**n vector with qubit 0 as the most
  significant bit, so ``tensor(a, b)`` acts on ``np.kron(psi_a, psi_b)``;
- rotation axes are real unit 3-vectors (Bloch vectors);
- an ancilla, when present, is the last qubit.

Every function is pure; nothing here mutates its arguments.
"""

from __future__ import annotations

import numpy as np

# Structural residuals (unitarity, normalization, density checks) are held to
# 1e-10, exact algebraic identities to 1e-12.
UNITARY_ATOL = 1e-10
# default pass threshold of every certificate (synth, verify, equivalence)
DEFAULT_TOLERANCE = 1e-10
ALGEBRA_ATOL = 1e-12
UNIT_VECTOR_ATOL = 1e-12
DENSITY_ATOL = 1e-10
DENSITY_EIGVAL_FLOOR = -1e-9

# ---------------------------------------------------------------------------
# fixed single-qubit operators
# ---------------------------------------------------------------------------

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
PAULIS = (X, Y, Z)

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)

# ---------------------------------------------------------------------------
# matrix helpers
# ---------------------------------------------------------------------------


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices or vectors."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def is_unitary(m: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    """True when ||M^dag M - I||_F <= atol."""
    m = require_square(m)
    resid = dagger(m) @ m - np.eye(m.shape[0])
    return bool(np.linalg.norm(resid) <= atol)


def require_unitary(m: np.ndarray, name: str = "matrix",
                    atol: float = UNITARY_ATOL) -> np.ndarray:
    m = require_square(m, name)
    if not is_unitary(m, atol):
        raise ValueError(f"{name} is not unitary within {atol}")
    return m


def distance_up_to_phase(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance between u and v minimized over a global phase.

    Equals sqrt(||u||_F^2 + ||v||_F^2 - 2 |tr(u^dag v)|); zero exactly when
    u = e^{i phi} v for some real phi. Computed as ||u - e^{i phi*} v||_F at
    the optimal phi*, which keeps full precision near zero where the closed
    form cancels catastrophically.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    overlap = np.trace(dagger(u) @ v)
    phase = overlap.conj() / abs(overlap) if abs(overlap) > 0.0 else 1.0
    return float(np.linalg.norm(u - phase * v))


# ---------------------------------------------------------------------------
# Bloch vectors and rotations
# ---------------------------------------------------------------------------


def unit_bloch(n, name: str = "axis") -> np.ndarray:
    """Validate and return a real unit 3-vector."""
    v = np.asarray(n, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must have exactly 3 components")
    if abs(v @ v - 1.0) > UNIT_VECTOR_ATOL:
        raise ValueError(f"{name} must be a unit vector, |{name}|^2 = {v @ v}")
    return v


def bloch_dot(n) -> np.ndarray:
    """n . sigma for a unit Bloch vector n; Hermitian, involutory."""
    v = unit_bloch(n)
    return v[0] * X + v[1] * Y + v[2] * Z


def rotation(n, theta: float) -> np.ndarray:
    """Rotation by theta about axis n: cos(theta/2) I - i sin(theta/2) n.sigma."""
    half = 0.5 * theta
    return np.cos(half) * I2 - 1j * np.sin(half) * bloch_dot(n)


def rotation_x(theta: float) -> np.ndarray:
    return rotation((1.0, 0.0, 0.0), theta)


def rotation_y(theta: float) -> np.ndarray:
    return rotation((0.0, 1.0, 0.0), theta)


def rotation_z(theta: float) -> np.ndarray:
    return rotation((0.0, 0.0, 1.0), theta)


def two_qubit_rotation(n_first, n_second, theta: float) -> np.ndarray:
    """Rotation generated by a product of axes on two qubits.

    cos(theta/2) I4 - i sin(theta/2) (n_first.sigma (x) n_second.sigma).
    """
    half = 0.5 * theta
    return (np.cos(half) * np.eye(4, dtype=complex)
            - 1j * np.sin(half) * tensor(bloch_dot(n_first), bloch_dot(n_second)))


def canonical_perp(n) -> np.ndarray:
    """A deterministic unit vector perpendicular to n.

    Projects z-hat off n and normalizes; falls back to x-hat when n is
    (anti)parallel to z-hat.
    """
    v = unit_bloch(n)
    p = np.array([0.0, 0.0, 1.0]) - v[2] * v
    norm = np.linalg.norm(p)
    if norm <= 1e-8:
        return np.array([1.0, 0.0, 0.0])
    return p / norm


# ---------------------------------------------------------------------------
# operator Schmidt decomposition (two qubits)
# ---------------------------------------------------------------------------


def realign(m: np.ndarray) -> np.ndarray:
    """Realign a 4x4 matrix so tensor factors become rank-1 structure.

    m[2i+j, 2k+l] -> out[2i+k, 2j+l]; singular values of the result are the
    operator Schmidt coefficients of m across the two qubits.
    """
    m = require_square(m)
    if m.shape != (4, 4):
        raise ValueError(f"realign expects a 4x4 matrix, got {m.shape}")
    return m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def operator_schmidt_values(m: np.ndarray) -> np.ndarray:
    """Operator Schmidt coefficients of a 4x4 matrix, descending."""
    return np.linalg.svd(realign(m), compute_uv=False)


def operator_schmidt_rank(m: np.ndarray, tol: float = 1e-10) -> int:
    """Number of Schmidt coefficients above tol relative to the largest.

    Rank 1 means m is a tensor product of single-qubit operators. The zero
    matrix has rank 0.
    """
    s = operator_schmidt_values(m)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def basis_state(num_qubits: int, index: int) -> np.ndarray:
    """Computational basis state |index> on num_qubits qubits."""
    dim = 2 ** num_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    state = np.zeros(dim, dtype=complex)
    state[index] = 1.0
    return state


def zero_state(num_qubits: int) -> np.ndarray:
    return basis_state(num_qubits, 0)


def state_num_qubits(state: np.ndarray) -> int:
    """Qubit count of a state vector; rejects non-power-of-two lengths."""
    dim = np.asarray(state).size
    n = max(dim.bit_length() - 1, 0)
    if dim <= 0 or 2 ** n != dim:
        raise ValueError(f"state length {dim} is not a power of two")
    return n


def normalize(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    norm = np.linalg.norm(state)
    if norm <= 1e-12:
        raise ValueError("cannot normalize a (near-)zero vector")
    return state / norm


def require_normalized(state: np.ndarray, atol: float = UNITARY_ATOL) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if abs(np.linalg.norm(state) ** 2 - 1.0) > atol:
        raise ValueError("state is not normalized")
    return state


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for normalized state vectors."""
    return float(abs(np.vdot(a, b)) ** 2)


def apply_matrix(state: np.ndarray, matrix: np.ndarray, qubits) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the listed qubits of an n-qubit state.

    The matrix's first tensor factor acts on qubits[0], and so on.
    """
    state = np.asarray(state, dtype=complex)
    matrix = require_square(matrix)
    n = state_num_qubits(state)
    qubits = list(qubits)
    k = len(qubits)
    if len(set(qubits)) != k:
        raise ValueError(f"qubit indices must be distinct, got {qubits}")
    if any(q < 0 or q >= n for q in qubits):
        raise ValueError(f"qubit index out of range for {n} qubits: {qubits}")
    if matrix.shape[0] != 2 ** k:
        raise ValueError(f"matrix dim {matrix.shape[0]} does not act on {k} qubits")
    psi = state.reshape([2] * n)
    front = list(range(k))
    psi = np.moveaxis(psi, qubits, front)
    psi = matrix @ psi.reshape(2 ** k, -1)
    psi = psi.reshape([2] * n)
    psi = np.moveaxis(psi, front, qubits)
    return psi.reshape(-1)


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------


def projector(state: np.ndarray) -> np.ndarray:
    """|state><state| as a density matrix for a normalized state."""
    state = np.asarray(state, dtype=complex)
    return np.outer(state, state.conj())


def is_density_matrix(rho: np.ndarray, atol: float = DENSITY_ATOL) -> bool:
    """Hermitian, unit trace, and eigenvalues above the -1e-9 floor."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if np.linalg.norm(rho - dagger(rho)) > atol:
        return False
    if abs(np.trace(rho).real - 1.0) > atol or abs(np.trace(rho).imag) > atol:
        return False
    return bool(np.linalg.eigvalsh(rho).min() >= DENSITY_EIGVAL_FLOOR)


def require_density(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if not is_density_matrix(rho):
        raise ValueError(f"{name} is not a density matrix")
    return rho
