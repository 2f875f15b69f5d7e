"""Quantum switch engine.

Two operations applied in a superposition of their two orderings, controlled
by an ancilla qubit: the joint gate acts as A B on the target when the
ancilla is |0> and as B A when it is |1>. The module covers the unitary
joint gate, ancilla measurement in a tunable basis, the per-branch effective
operators, and the channel-level construction for noisy operations,
including the N-operation generalization with an N!-dimensional control.

The ancilla (control) is always the LAST tensor factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .linalg import (
    P0,
    P1,
    UNITARY_ATOL,
    Z,
    dagger,
    is_density_matrix,
    projector,
    read_only,
    require_angle,
    require_square,
    require_unitary,
    state_num_qubits,
    tensor,
)

# Branches at or below this probability are reported as probability 0 with no
# post-state instead of normalizing a vanishing vector.
ZERO_BRANCH_ATOL = 1e-18


class KrausChannel:
    """A completely positive trace-preserving map given by Kraus operators.

    Operators must be square, finite, share one dimension, and satisfy the
    completeness relation sum_i K_i^dag K_i = I within 1e-10; ``stack`` is
    their one read-only (rank, dim, dim) copy and ``operators`` its rows.
    """

    def __init__(self, operators):
        ops = tuple(np.asarray(k, dtype=complex) for k in operators)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        dim = require_square(ops[0], "Kraus operator").shape[0]
        for k in ops:
            if require_square(k, "Kraus operator").shape[0] != dim:
                raise ValueError("Kraus operators must share one dimension")
            if not np.isfinite(k).all():
                raise ValueError("Kraus operators must be finite")
        self.stack = np.stack(ops)
        read_only(self.stack)
        self.operators = tuple(self.stack)
        total = (dagger(self.stack) @ self.stack).sum(axis=0)
        if not np.linalg.norm(total - np.eye(dim)) <= UNITARY_ATOL:
            raise ValueError("Kraus operators do not satisfy completeness")

    @classmethod
    def from_unitary(cls, u: np.ndarray) -> "KrausChannel":
        return cls((require_unitary(u, "unitary"),))

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    # input and output dimensions coincide for every channel built here
    input_dim = dim
    output_dim = dim

    @property
    def rank(self) -> int:
        return len(self.operators)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        return sum(k @ rho @ dagger(k) for k in self.operators)


@dataclass(frozen=True, eq=False)
class SwitchJoint:
    """Joint unitary of two operations in superposed orders (control last)."""

    target_dim: int
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One branch of an ancilla measurement.

    ``post_state`` is normalized with the ancilla removed; it is None when
    the branch has probability 0.
    """

    branch: str
    probability: float
    post_state: np.ndarray | None


def _require_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a and b as complex unitaries of one square shape; raises naming, in
    this order, a's shape, a's unitarity, b's shape, b's unitarity, then the
    shapes' mismatch."""
    a = require_unitary(a, "a")
    b = require_unitary(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def switch_unitary(a: np.ndarray, b: np.ndarray) -> SwitchJoint:
    """Joint gate A B (x) |0><0| + B A (x) |1><1| on target (x) control.

    Equivalently (1/2)[{A,B} (x) I + [A,B] (x) Z]; unitary whenever a and b
    are.
    """
    a, b = _require_pair(a, b)
    return SwitchJoint(target_dim=a.shape[0], matrix=joint_matrix(a, b))


def joint_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``switch_unitary(a, b).matrix`` without its checks: a and b are
    complex unitaries of one shape."""
    return tensor(a @ b, P0) + tensor(b @ a, P1)


def apply_switch(joint: SwitchJoint, psi: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Run the joint gate on target state psi and control qubit state omega."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    omega = np.asarray(omega, dtype=complex).reshape(-1)
    if psi.size != joint.target_dim:
        raise ValueError(f"target state has dim {psi.size}, expected {joint.target_dim}")
    if omega.size != 2:
        raise ValueError("control state must be a single qubit")
    return joint.matrix @ tensor(psi, omega)


def branch_functionals(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient pairs contracted against the ancilla, one per branch.

    The plus branch pairs the ancilla with (cos(theta/2), i sin(theta/2)),
    the minus branch with (i sin(theta/2), cos(theta/2)); these are the
    unconjugated basis coefficients, i.e. a measurement in the
    complex-conjugate basis. Raises ValueError unless theta is a finite
    real number (``require_angle``).
    """
    theta = require_angle(theta, "theta")
    c = np.cos(0.5 * theta)
    s = np.sin(0.5 * theta)
    return (np.array([c, 1j * s], dtype=complex),
            np.array([1j * s, c], dtype=complex))


def measure_ancilla(state: np.ndarray,
                    theta: float) -> tuple[MeasurementOutcome, MeasurementOutcome]:
    """Measure the last qubit in the theta basis; return both branches.

    The input must be normalized; branch probabilities then sum to 1. A
    zero-probability branch is reported with probability 0 and no post-state.
    """
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state_num_qubits(state) < 1:
        raise ValueError("state has no qubit to measure")
    plus, minus = (MeasurementOutcome(branch, float(prob), post if prob else None)
                   for branch, (prob, post)
                   in zip(("plus", "minus"),
                          project_branches(state, branch_functionals(theta))))
    return plus, minus


def project_branches(states: np.ndarray, functionals: tuple[np.ndarray, np.ndarray]
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
    """(probability, post-state) of the plus and of the minus branch.

    ``states`` are complex vectors on at least one qubit, stacked on any
    leading axes, and ``functionals`` is ``branch_functionals(theta)``. Each
    state must be normalized: its two branch probabilities sum to its
    squared norm, and a sum off 1 by more than UNITARY_ATOL (or NaN) raises
    ValueError. A branch at or below ZERO_BRANCH_ATOL gets probability 0.0
    and a post-state that is not normalized; every other post-state is.
    """
    pairs = states.reshape(states.shape[:-1] + (-1, 2))
    amps = [pairs @ f for f in functionals]
    probs = [np.vecdot(amp, amp).real for amp in amps]
    if not (abs(probs[0] + probs[1] - 1.0) <= UNITARY_ATOL).all():
        raise ValueError("state is not normalized")
    branches = []
    for amp, prob in zip(amps, probs):
        cut = prob <= ZERO_BRANCH_ATOL
        # exact where kept (prob * True and prob + False are prob); a cut
        # branch is divided by about 1, which keeps its post-state finite
        branches.append((prob * ~cut, amp / np.sqrt(prob + cut)[..., None]))
    return branches


def branch_gates(a: np.ndarray, b: np.ndarray,
                 theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Effective target operators after measuring the control at angle theta.

    S_plus = cos(theta/2) A B + i sin(theta/2) B A and S_minus with the
    coefficients swapped. They satisfy
    S_plus^dag S_plus + S_minus^dag S_minus = 2 I.
    """
    a, b = _require_pair(a, b)
    return branch_products(a @ b, b @ a, theta)


def branch_products(ab: np.ndarray, ba: np.ndarray,
                    theta: float) -> tuple[np.ndarray, np.ndarray]:
    """``branch_gates`` from the order products AB and BA, checking only theta."""
    return tuple(f[0] * ab + f[1] * ba for f in branch_functionals(theta))


def branch_gates_tensor(a_list, b_list, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Branch operators for wire-by-wire single-qubit gate pairs.

    With A = A_1 (x) ... (x) A_N and B likewise,
    S_plus = cos(theta/2) (x)_i A_i B_i + i sin(theta/2) (x)_i B_i A_i,
    built directly from the 2x2 factors.
    """
    a_list = [require_unitary(a, "a factor") for a in a_list]
    b_list = [require_unitary(b, "b factor") for b in b_list]
    if not a_list or len(a_list) != len(b_list):
        raise ValueError("factor lists must be non-empty and the same length")
    for m in (*a_list, *b_list):
        if m.shape != (2, 2):
            raise ValueError("factors must be single-qubit gates")
    ab = tensor(*[a @ b for a, b in zip(a_list, b_list)])
    ba = tensor(*[b @ a for a, b in zip(a_list, b_list)])
    return branch_products(ab, ba, theta)


def _four_term_map(ops_a, ops_b, rho: np.ndarray, omega: np.ndarray) -> np.ndarray:
    # Anticommutator/commutator form of the two-switch supermap; linear in
    # rho, so it also serves for Choi construction on matrix units. It runs
    # on one item or on a stack of T trials: ops_a (ra, [T], d, d) and ops_b
    # (rb, [T], d, d) hold Kraus operator i of every trial at [i], omega
    # (2, 2) carries the trial axis when they do, and rho is (d, d) or
    # (T, d, d). Products are stacked over the Kraus pairs (a-major); each
    # pair's four weighted terms are summed in pair then term order, so every
    # trial's bits are those of the pairwise Kronecker loop.
    a, b = np.asarray(ops_a)[:, None], np.asarray(ops_b)[None]
    ab, ba = a @ b, b @ a
    ab, ba = ab.reshape(-1, *ab.shape[2:]), ba.reshape(-1, *ba.shape[2:])
    anti, comm = ab + ba, ab - ba
    anti_rho, comm_rho = anti @ rho, comm @ rho
    anti_dag, comm_dag = dagger(anti), dagger(comm)
    terms = np.asarray([anti_rho @ anti_dag, anti_rho @ comm_dag,
                        comm_rho @ anti_dag, comm_rho @ comm_dag])
    weights = np.asarray([omega, omega @ Z, Z @ omega, Z @ omega @ Z])
    weighted = (terms[..., :, None, :, None]
                * weights[:, None, ..., None, :, None, :])  # (term, pair, ...)
    out = np.zeros(weighted.shape[2:-4] + (2 * rho.shape[-1],) * 2, dtype=complex)
    for pair in zip(*weighted.reshape(*weighted.shape[:2], *out.shape)):
        for term in pair:
            out += term
    return 0.25 * out


def switch_channel(chan_a: KrausChannel, chan_b: KrausChannel, rho: np.ndarray,
                   omega: np.ndarray) -> np.ndarray:
    """Two noisy operations in superposed orders; output on target (x) control.

    Computed in the anticommutator/commutator form: for each Kraus pair the
    four terms {A,B} rho {A,B}^dag (x) omega, {A,B} rho [A,B]^dag (x) omega Z,
    [A,B] rho {A,B}^dag (x) Z omega, and [A,B] rho [A,B]^dag (x) Z omega Z,
    summed with weight 1/4. Trace preserving and completely positive.
    """
    rho, omega = _require_states(rho, omega)
    if chan_a.dim != rho.shape[0] or chan_b.dim != rho.shape[0]:
        raise ValueError("channel dimensions must match rho")
    if omega.shape != (2, 2):
        raise ValueError("control omega must be a qubit state")
    return _four_term_map(chan_a.stack, chan_b.stack, rho, omega)


def _require_states(rho, omega, dim: int | None = None):
    """rho and omega as complex arrays (given ``dim``, as switch_channel_n gives
    it, an omega of None, the library's own state, stays None); raises naming
    rho, then (given ``dim``) rho's dimension, then omega. Each state is judged
    once: in one stacked check when both share a 2-D shape, else one apiece."""
    rho = np.asarray(rho, dtype=complex)
    omega = None if omega is None and dim is not None else np.asarray(omega, dtype=complex)
    paired = omega is not None and rho.ndim == 2 and rho.shape == omega.shape
    rho_ok, omega_ok = (is_density_matrix(np.asarray([rho, omega])) if paired
                        else (rho.ndim == 2 and is_density_matrix(rho), None))
    if not rho_ok:
        raise ValueError("rho is not a density matrix")
    if dim is not None and rho.shape[0] != dim:
        raise ValueError("rho dimension must match the channels")
    if omega is not None and not (omega_ok if paired
                                  else omega.ndim == 2 and is_density_matrix(omega)):
        raise ValueError("omega is not a density matrix")
    return rho, omega


def _require_state_stacks(rhos: np.ndarray, omegas: np.ndarray) -> None:
    """Stacks of rho and omega, one pair per trial, judged in one stacked
    ``is_density_matrix`` pass; the first trial with a bad state raises what
    ``_require_states`` raises for its pair."""
    ok = (is_density_matrix(np.concatenate([rhos, omegas])).reshape(2, -1)
          if rhos.shape == omegas.shape
          else np.array([is_density_matrix(rhos), is_density_matrix(omegas)]))
    bad = np.flatnonzero(~ok.all(axis=0))
    if bad.size:
        _require_states(rhos[bad[0]], omegas[bad[0]])


def uniform_control_state(num_orders: int) -> np.ndarray:
    """Pure uniform superposition over num_orders control basis states."""
    return projector(np.full(num_orders, 1.0 / np.sqrt(num_orders), dtype=complex))


def switch_channel_n(channels, rho: np.ndarray,
                     omega: np.ndarray | None = None) -> np.ndarray:
    """N operations in a superposition of all N! orderings (1 <= N <= 4).

    The control has dimension N!; basis state |k> applies the k-th
    permutation in lexicographic order, with |0> the identity ordering
    (product read left to right). Kraus operators of the joint map are
    K = sum_k perm_k(A^(1)_{i_1} ... A^(N)_{i_N}) (x) |k><k|. When omega is
    omitted it defaults to the uniform superposition over all orders.
    """
    channels = list(channels)
    n = len(channels)
    if not 1 <= n <= 4:
        raise ValueError(f"need between 1 and 4 operations, got {n}")
    dim = channels[0].dim
    if any(ch.dim != dim for ch in channels):
        raise ValueError("all channels must share the target dimension")
    rho, omega = _require_states(rho, omega, dim)
    num_orders = factorial(n)
    omega = uniform_control_state(num_orders) if omega is None else omega
    if omega.shape[0] != num_orders:
        raise ValueError(f"control omega must have dimension {num_orders}")
    return _orders_map([ch.stack for ch in channels], rho, omega)


def _orders_map(stacks, rho: np.ndarray, omega: np.ndarray) -> np.ndarray:
    # switch_channel_n's joint map without checks, on one item or on a stack
    # of trials: each wire's Kraus stack is (rank, [T], d, d), with Kraus
    # operator i of every trial at [i], and rho (d, d) and omega (N!, N!)
    # carry the trial axis when the operators do. Every trial's bits are
    # those of the single call.
    n, dim, num_orders = len(stacks), rho.shape[-1], omega.shape[-1]
    # each wire's pick for every Kraus combination, combinations in
    # itertools.product order: picks[w, c] is a ([T], dim, dim) operator
    combos = np.indices([len(s) for s in stacks]).reshape(n, -1)
    picks = np.asarray([s[idx] for s, idx in zip(stacks, combos)])
    # extend every order prefix by each unused wire, a level at a time; the
    # prefixes stay lexicographic, so the last level is permutations(range(n))
    prefixes = [()]
    prods = np.eye(dim, dtype=complex).reshape((1,) * (picks.ndim - 2) + (dim, dim))
    for _ in range(n):
        steps = [(i, w) for i, p in enumerate(prefixes) for w in range(n) if w not in p]
        prods = prods[[i for i, _ in steps]] @ picks[[w for _, w in steps]]
        prefixes = [prefixes[i] + (w,) for i, w in steps]
    diagonal = np.arange(num_orders)
    joint_in = tensor(rho, omega)
    out = np.zeros_like(joint_in)
    for c in range(combos.shape[1]):
        # K = sum_k prods[k, c] (x) |k><k|: each order adds its block to a
        # +0.0 start, as the tensor(product, |k><k|) terms do
        kraus = np.zeros(joint_in.shape[:-2] + (dim, num_orders, dim, num_orders),
                         dtype=complex)
        kraus[..., :, diagonal, :, diagonal] += prods[:, c]
        kraus = kraus.reshape(joint_in.shape)
        out += kraus @ joint_in @ dagger(kraus)
    return out


def choi_matrix(apply_map, input_dim: int) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) map(|i><j|) of a linear matrix map.

    The map is completely positive exactly when the result is positive
    semidefinite. ``input_dim`` must be an integer (not a bool) of at least 1.
    A map that returns a stack of matrices gives one Choi matrix per item.
    """
    if isinstance(input_dim, bool) or not isinstance(input_dim, (int, np.integer)):
        raise ValueError(f"input_dim must be an integer, got {input_dim!r}")
    if input_dim < 1:
        raise ValueError(f"input_dim must be at least 1, got {input_dim}")
    choi = None
    for i in range(input_dim):
        for j in range(input_dim):
            unit = np.zeros((input_dim, input_dim), dtype=complex)
            unit[i, j] = 1.0
            block = tensor(unit, np.asarray(apply_map(unit), dtype=complex))
            choi = block if choi is None else choi + block
    return choi
