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

import math
import re
from functools import lru_cache

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

# Largest qubit count a circuit or program may declare; a dense state on
# MAX_QUBITS qubits takes 16 MiB, and each extra qubit doubles that.
MAX_QUBITS = 20

# Largest trial count of a sampled check: verify_synthesis holds all its
# trials' states at once, about 0.55 KB per trial.
MAX_TRIALS = 1_000_000

# ---------------------------------------------------------------------------
# fixed single-qubit operators
# ---------------------------------------------------------------------------


def read_only(*arrays: np.ndarray) -> None:
    """Mark arrays that are shared read-only: a write into one raises ValueError."""
    for a in arrays:
        a.flags.writeable = False


I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
PAULIS = (X, Y, Z)

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
read_only(I2, X, Y, Z, H, P0, P1, PLUS)

# ---------------------------------------------------------------------------
# matrix helpers
# ---------------------------------------------------------------------------


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.asarray(m).conj().mT


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices or vectors; matrix factors
    may be stacks whose leading axes broadcast, one product per item."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        f = np.asarray(f, dtype=complex)
        # np.kron's own elementwise product, without its axis bookkeeping
        if out.ndim >= 2 and f.ndim >= 2:
            out = out[..., :, None, :, None] * f[..., None, :, None, :]
            out = out.reshape(*out.shape[:-4], out.shape[-4] * out.shape[-3],
                              out.shape[-2] * out.shape[-1])
        elif f.ndim == 1:  # a vector, or each row of a stack, times f
            out = (out[..., None] * f).reshape(*out.shape[:-1], -1)
        else:
            raise ValueError(f"tensor() cannot multiply shapes {out.shape} and {f.shape}")
    return out


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def unitarity_residual(m: np.ndarray) -> float | np.ndarray:
    """||M^dag M - I||_F of a square matrix, or of each of a (k, d, d) stack."""
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    return frobenius(m.conj().mT @ m - np.eye(m.shape[-1]))


def frobenius(m: np.ndarray) -> float | np.ndarray:
    """||M||_F of a C-ordered complex matrix, or of each matrix of a stack,
    bit for bit ``np.linalg.norm``: the two real dot products it sums, taken
    with vecdot (which runs dot's loop)."""
    flat = m.reshape(*m.shape[:-2], m.shape[-2] * m.shape[-1])
    re, im = flat.real, flat.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def is_unitary(m: np.ndarray) -> bool | np.ndarray:
    """True when ||M^dag M - I||_F <= UNITARY_ATOL; one bool per matrix of a stack."""
    ok = unitarity_residual(m) <= UNITARY_ATOL
    return bool(ok) if ok.ndim == 0 else ok


def require_unitary(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = require_square(m, name)
    if not is_unitary(m):
        raise ValueError(f"{name} is not unitary within {UNITARY_ATOL}")
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
    """Validate and return a real unit 3-vector. Each component is judged before
    conversion: an array's by its dtype, a tuple's, a list's or an object array's
    by ``_is_real``, as is any other ``n`` but a str (numpy reads its text)."""
    if isinstance(n, np.ndarray) and n.dtype.kind == "O":
        n = n.tolist()
    if (n.dtype.kind not in "iuf" if isinstance(n, np.ndarray)
            else not all(map(_is_real, n)) if isinstance(n, (tuple, list))
            else not (isinstance(n, str) or _is_real(n))):
        raise ValueError(f"{name} components must be real numbers, got {n!r}")
    try:
        v = np.asarray(n, dtype=float)
    except OverflowError:  # an int beyond float range is infinite, as _real reads it
        v = np.array(_real(n, name) if _is_real(n) else [_real(c, name) for c in n])
    if v.shape != (3,):
        raise ValueError(f"{name} must have exactly 3 components")
    if not (max(map(abs, v.tolist())) <= 2.0 and abs(v @ v - 1.0) <= UNIT_VECTOR_ATOL):
        with np.errstate(over="ignore"):  # past 1e154 a component squares to inf
            raise ValueError(f"{name} must be a unit vector, |{name}|^2 = {v @ v}")
    return v


def _sigma(x: float, y: float, z: float) -> tuple[complex, ...]:
    """Row-major entries of ``x * X + y * Y + z * Z`` as numpy sums them (each
    numpy complex product repeated here and in ``su2`` has an exactly zero
    term per part, so numpy's fused multiply-add and Python agree)."""
    zx, zy, zz = 0.0 * x, 0.0 * y, 0.0 * z  # x * 0.0: a zero signed as x
    return (complex(zx + zy + z, 0.0), complex(x + 0.0 + zz, 0.0 - y),
            complex(x + zy + zz, y + 0.0), complex(zx + zy - z, 0.0))


def su2(x: float, y: float, z: float, angle: float, sign: int = 1) -> np.ndarray:
    """cos(angle) I + sign i sin(angle) n.sigma for unit n = (x, y, z), unchecked;
    bit for bit ``np.cos(angle) * I2 +/- 1j * np.sin(angle) * bloch_dot(n)``."""
    c, k = float(np.cos(angle)), 1j * np.sin(angle)
    diag, off = complex(c, 0.0), complex(0.0 * c, 0.0)  # c * I2
    t00, t01, t10, t11 = (k * b if sign > 0 else -(k * b) for b in _sigma(x, y, z))
    return np.array([[diag + t00, off + t01], [off + t10, diag + t11]])


def bloch_dot(n) -> np.ndarray:
    """n . sigma for a unit Bloch vector n; Hermitian, involutory."""
    return np.array(_sigma(*unit_bloch(n).tolist())).reshape(2, 2)


def rotation(n, theta: float) -> np.ndarray:
    """Rotation by theta about axis n: cos(theta/2) I - i sin(theta/2) n.sigma."""
    return su2(*unit_bloch(n).tolist(), 0.5 * require_angle(theta, "theta"), -1)


def rotation_x(theta: float) -> np.ndarray:
    return su2(1.0, 0.0, 0.0, 0.5 * require_angle(theta, "theta"), -1)


def rotation_y(theta: float) -> np.ndarray:
    return su2(0.0, 1.0, 0.0, 0.5 * require_angle(theta, "theta"), -1)


def rotation_z(theta: float) -> np.ndarray:
    return su2(0.0, 0.0, 1.0, 0.5 * require_angle(theta, "theta"), -1)


def two_qubit_rotation(n_first, n_second, theta: float) -> np.ndarray:
    """Rotation generated by a product of axes on two qubits.

    cos(theta/2) I4 - i sin(theta/2) (n_first.sigma (x) n_second.sigma).
    """
    half = 0.5 * require_angle(theta, "theta")
    return (np.cos(half) * np.eye(4, dtype=complex)
            - 1j * np.sin(half) * tensor(bloch_dot(n_first), bloch_dot(n_second)))


def canonical_perp(n) -> np.ndarray:
    """A deterministic unit vector perpendicular to n.

    Projects z-hat off n and normalizes; falls back to x-hat when n is
    (anti)parallel to z-hat. A result off orthogonal by more than
    ALGEBRA_ATOL, as near +-z, takes one Gram-Schmidt step against n.
    """
    v = unit_bloch(n)
    x, y, z = v.tolist()
    p = np.array([0.0 - z * x, 0.0 - z * y, 1.0 - z * z])  # z-hat - z n
    norm = np.linalg.norm(p)
    p = np.array([1.0, 0.0, 0.0]) if norm <= 1e-8 else p / norm
    if abs(v @ p) > ALGEBRA_ATOL:  # 1 - z * z has lost its digits, or x-hat is off by x
        p = p - (v @ p) * v
        return p / np.linalg.norm(p)
    return p


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


def operator_schmidt_rank(m: np.ndarray) -> int:
    """Number of Schmidt coefficients above 1e-10 relative to the largest.

    Rank 1 means m is a tensor product of single-qubit operators. The zero
    matrix has rank 0.
    """
    s = operator_schmidt_values(m)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > 1e-10 * s[0]))


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def basis_state(num_qubits: int, index: int) -> np.ndarray:
    """Computational basis state |index> on num_qubits qubits, at most
    ``MAX_QUBITS``; each argument is an int or a numpy integer, not a bool."""
    if not _is_integer(num_qubits) or num_qubits < 0:
        raise ValueError(f"num_qubits must be a non-negative integer, got {num_qubits!r}")
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"num_qubits {num_qubits} exceeds the maximum of {MAX_QUBITS}")
    if not _is_integer(index):
        raise ValueError(f"index must be an integer, got {index!r}")
    dim = 2 ** int(num_qubits)
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


def fidelity(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """|<a|b>|^2 for normalized state vectors; leading axes stack pairs.

    A float for one pair, an array for a stack, with the same bits per pair:
    ``abs`` of one complex number is ``hypot`` of its parts, while ``np.abs``
    of a complex array can differ from it in the last bit.
    """
    overlap = np.vecdot(a, b)
    value = np.hypot(overlap.real, overlap.imag) ** 2
    return value if value.ndim else float(value)


def matvecs(matrix: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``matrix @ state`` for each state stacked on the first axis.

    Each product runs on the kernel numpy uses for one matrix-vector
    product, so every row equals ``matrix @ states[i]`` bitwise.
    """
    return (matrix @ states[:, :, None])[:, :, 0]


def apply_matrix(state: np.ndarray, matrix: np.ndarray, qubits) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the listed qubits of an n-qubit state.

    The matrix's first tensor factor acts on qubits[0], and so on.
    """
    state = np.asarray(state, dtype=complex).reshape(-1)
    matrix = require_square(matrix)
    n = state_num_qubits(state)
    qubits = tuple(qubits)
    if not all(map(_is_integer, qubits)):
        raise ValueError(f"qubit indices must be integers, got {qubits!r}")
    k = len(qubits)
    if len(set(qubits)) != k:
        raise ValueError(f"qubit indices must be distinct, got {qubits}")
    if any(q < 0 or q >= n for q in qubits):
        raise ValueError(f"qubit index out of range for {n} qubits: {qubits}")
    if matrix.shape[0] != 2 ** k:
        raise ValueError(f"matrix dim {matrix.shape[0]} does not act on {k} qubits")
    return apply_ordered(state[None], matrix, *axis_orders(qubits, n))[0]


@lru_cache(maxsize=4096)
def axis_orders(qubits: tuple[int, ...], n: int) -> tuple[tuple[int, ...], ...]:
    """Resolved layout of ``apply_ordered`` for ``qubits`` of n-qubit states
    stacked on the first axis.

    Returns ``(shape, order, split, inverse)``: the stack's tensor shape, the
    transpose order that keeps the stack's axis first and brings ``qubits``
    next in the order listed, the (states, targets, rest) shape of the
    product's operand, and the inverse order that moves the qubits back.
    Memoized for the process.
    """
    targets = 2 ** len(qubits)
    qubits = (0, *(q + 1 for q in qubits))  # qubit q is axis q + 1
    order = (*qubits, *(q for q in range(n + 1) if q not in qubits))
    inverse = [0] * (n + 1)
    for axis, q in enumerate(order):
        inverse[q] = axis
    return ((-1, *(2,) * n), order, (-1, targets, 2 ** n // targets),
            tuple(inverse))


def apply_ordered(state: np.ndarray, matrix: np.ndarray, shape: tuple[int, ...],
                  order: tuple[int, ...], split: tuple[int, ...],
                  inverse: tuple[int, ...]) -> np.ndarray:
    """``apply_matrix`` without its checks, on each state of a stack.

    ``shape, order, split, inverse`` are ``axis_orders(qubits, n)`` and
    ``state`` holds n-qubit states stacked on the first axis; ``matrix`` is a
    complex 2^k x 2^k array for the k listed qubits. Each state is one
    C-contiguous item of the product, which numpy runs on the kernel and
    shapes of a one-state product, so every row is the same bits as a stack
    of that row alone.
    """
    psi = state.reshape(shape).transpose(order).reshape(split)
    return (matrix @ psi).reshape(shape).transpose(inverse).reshape(state.shape)


# ---------------------------------------------------------------------------
# inputs and worst cases of a sampled check
# ---------------------------------------------------------------------------

# number text of circuit files and CLI flags, matched whole: ASCII digits only,
# since ``\d`` alone also matches other scripts' digits
_INT_RE = re.compile(r"\d+", re.ASCII)
_FLOAT_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", re.ASCII)


def _is_integer(value) -> bool:
    """The one type rule of a count, an index or a seed: an int or a numpy
    integer, not a bool (which numpy would read as a mask)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """The one real-number rule: an int, float or numpy integer or floating, not a bool."""
    return type(value) in (int, float) or (
        isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool))


def _real(value, name: str) -> float:
    """``value`` as a float, an int beyond float range as an infinity; raises
    ValueError naming ``name`` unless it is ``_is_real``."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def require_angle(value, name: str = "angle") -> float:
    """An angle as a float; raises ValueError, naming the argument, unless it
    is a finite int, float or numpy real (a bool is not one)."""
    angle = _real(value, name)
    if not math.isfinite(angle):
        raise ValueError(f"{name} must be finite, got {angle}")
    return angle


def require_tolerance(tolerance: float) -> float:
    """A certificate's pass threshold, returned unchanged.

    It must be a finite real number, not a bool, and at least 0: a NaN or
    negative threshold fails every check, an infinite one passes every check.
    """
    value = _real(tolerance, "tolerance")
    if not 0.0 <= value < math.inf:
        raise ValueError(f"tolerance must be finite and at least 0, got {value}")
    return tolerance


def require_trials(trials: int) -> int:
    """A sampled check's trial count, returned unchanged: from 1 (a check
    over zero trials examines nothing) to ``MAX_TRIALS``."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    return trials


def require_check_inputs(trials: int, seed: int, tolerance: float) -> tuple[int, int]:
    """A sampled check's ``trials`` and ``seed`` as plain ints; raises
    ValueError, naming the argument, unless its inputs are valid."""
    if not _is_integer(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    trials, seed = require_trials(int(trials)), require_seed(seed)
    require_tolerance(tolerance)
    return trials, seed


def require_seed(seed: int) -> int:
    """A generator seed as a plain int; raises ValueError, naming ``seed``,
    unless it is a non-negative integer (a bool is not one)."""
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def worst(values: np.ndarray, keys: np.ndarray | None = None) -> tuple[float, int]:
    """The worst case of a sampled check: the largest of ``values`` and its key,
    ``keys[i]`` for ``values[i]`` (by default i). A NaN, which measured nothing,
    ranks above every number, and a tie goes to the smallest key."""
    i = int(np.argmax(values))  # the first NaN, else the first largest value
    top = values[i]
    if keys is not None:
        i = int(keys[values == top if top == top else np.isnan(values)].min())
    return float(top), i


def worst_rank(pair: tuple[float, int]) -> tuple:
    """``worst``'s rule as a key of the built-in ``max`` over (value, key) pairs."""
    value, key = pair
    return value != value, value if value == value else 0.0, -key


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------


def projector(state: np.ndarray) -> np.ndarray:
    """|state><state| as a density matrix for a normalized state."""
    state = np.asarray(state, dtype=complex)
    return np.outer(state, state.conj())


def is_density_matrix(rho: np.ndarray, atol: float = DENSITY_ATOL) -> bool | np.ndarray:
    """Finite, Hermitian, unit trace, and eigenvalues above the -1e-9 floor;
    one bool per matrix of a (k, d, d) stack. No other shape is a density."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2]:
        return np.zeros(len(rho), dtype=bool) if rho.ndim == 3 else False
    # C order, so a trace sums as np.trace sums one matrix; a non-finite
    # matrix is zeroed, so the checks below run on it without a warning
    stack = np.ascontiguousarray(rho[None] if rho.ndim == 2 else rho)
    finite = np.isfinite(stack).all(axis=(1, 2))
    stack = stack if finite.all() else np.where(finite[:, None, None], stack, 0.0)
    herm = frobenius(stack - dagger(stack))
    ok = [f and not (h > atol or abs(t.real - 1.0) > atol or abs(t.imag) > atol)
          for f, h, t in zip(finite.tolist(), herm.tolist(),
                             stack.diagonal(0, 1, 2).sum(axis=1).tolist())]
    if any(ok):  # eigvalsh lists each matrix's eigenvalues in ascending order
        low = iter(np.linalg.eigvalsh(stack if all(ok) else stack[ok])[:, 0].tolist())
        ok = [f and next(low) >= DENSITY_EIGVAL_FLOOR for f in ok]
    return ok[0] if rho.ndim == 2 else np.array(ok, dtype=bool)
