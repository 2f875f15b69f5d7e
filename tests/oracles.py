"""Independent oracles the tests check library results against.

Everything here is deliberately written from the raw definitions (explicit
Kraus sums, projector arithmetic, matrix exponentials, index-level
realignment) rather than through the library's own code paths.
"""

import numpy as np
from scipy.linalg import expm

P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kraus_form_switch(ops_a, ops_b, rho, omega):
    """Direct Kraus construction K_ij = A_i B_j (x) |0><0| + B_j A_i (x) |1><1|."""
    out = np.zeros((rho.shape[0] * 2,) * 2, dtype=complex)
    joint_in = np.kron(rho, omega)
    for a in ops_a:
        for b in ops_b:
            k = np.kron(a @ b, P0) + np.kron(b @ a, P1)
            out += k @ joint_in @ k.conj().T
    return out


def projector_measurement(state, theta):
    """Measurement statistics via explicit rank-1 projectors on the ancilla.

    The measured basis is the complex conjugate of
    (cos(theta/2), i sin(theta/2)) / (i sin(theta/2), cos(theta/2)), so the
    Born amplitudes pair the state with the unconjugated coefficients.
    """
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    basis = {
        "plus": np.array([c, -1j * s], dtype=complex),
        "minus": np.array([-1j * s, c], dtype=complex),
    }
    dim = state.size // 2
    results = {}
    for name, vec in basis.items():
        proj = np.kron(np.eye(dim), np.outer(vec, vec.conj()))
        prob = float(np.real(np.vdot(state, proj @ state)))
        collapsed = proj @ state
        if prob > 1e-15:
            kept = state.reshape(dim, 2) @ vec.conj()
            results[name] = (prob, kept / np.linalg.norm(kept))
        else:
            results[name] = (prob, None)
        # projector route and partial route agree on the retained norm
        assert abs(np.linalg.norm(collapsed) ** 2 - prob) < 1e-12
    return results["plus"], results["minus"]


def exponentiated_cu(alpha, theta, axis):
    """Controlled gate with the target block from a literal matrix exponential."""
    n_dot = axis[0] * PAULI["x"] + axis[1] * PAULI["y"] + axis[2] * PAULI["z"]
    u = expm(1j * (alpha * np.eye(2) + theta * n_dot))
    return np.kron(P0, np.eye(2)) + np.kron(P1, u)


def realignment_rank(m, tol=1e-10):
    """Operator Schmidt rank via an index-level realignment and SVD."""
    m = np.asarray(m, dtype=complex)
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k, 2 * j + l] = m[2 * i + j, 2 * k + l]
    values = np.linalg.svd(out, compute_uv=False)
    return int(np.count_nonzero(values > tol * values[0]))


def matrix_entries(m):
    """Row-major [re, im] pairs of a matrix, as a program document lists them."""
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[re, im] for re, im in zip(flat.real.tolist(), flat.imag.tolist())]


def haar_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def looped_verify_trials(spec, trials, seed):
    """The sampled half of ``verify_synthesis`` as a loop, one trial at a time.

    Each trial draws one state, stages it through the pre gate and the switch
    with 1-D products, checks its normalization, projects the ancilla with
    ``np.vdot`` and scores both corrected branches with ``abs`` of the
    overlap. Returns the worst branch probabilities, the largest infidelity
    and the first trial that reaches it.
    """
    from switchsynth.switch import branch_functionals, switch_unitary
    from switchsynth.synthesis import cu_matrix, synthesize

    plan = synthesize(spec)
    target = cu_matrix(spec)
    pre = plan.pre
    joint = switch_unitary(plan.gate_a, plan.gate_b).matrix
    plus_state = np.array([1, 1], dtype=complex) / np.sqrt(2)
    functionals = branch_functionals(plan.measurement_theta)
    corrections = (plan.post_plus, plan.post_minus)
    rng = np.random.default_rng(seed)
    worst_dev, worst_pair = -1.0, (0.5, 0.5)
    max_infidelity, worst_trial, worst_trial_infidelity = 0.0, 0, -np.inf
    for trial in range(trials):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = v / np.linalg.norm(v)
        expected = target @ psi
        staged = joint @ ((pre @ psi)[:, None] * plus_state[None, :]).reshape(-1)
        if abs(np.linalg.norm(staged) ** 2 - 1.0) > 1e-10:
            raise ValueError("state is not normalized")
        probabilities = []
        trial_infidelity = -np.inf
        for f, correction in zip(functionals, corrections):
            amp = staged.reshape(-1, 2) @ f
            prob = float(np.vdot(amp, amp).real)
            if prob <= 1e-18:
                probabilities.append(0.0)
                infidelity = 1.0
            else:
                probabilities.append(prob)
                final = correction @ (amp / np.sqrt(prob))
                infidelity = 1.0 - float(abs(np.vdot(expected, final)) ** 2)
            max_infidelity = max(max_infidelity, infidelity)
            trial_infidelity = max(trial_infidelity, infidelity)
        if trial_infidelity > worst_trial_infidelity:
            worst_trial, worst_trial_infidelity = trial, trial_infidelity
        dev = abs(probabilities[0] - 0.5)
        if dev > worst_dev:
            worst_dev, worst_pair = dev, tuple(probabilities)
    return worst_pair, max_infidelity, worst_trial


def looped_sampled_table(rng, k, rows):
    """A sampled equivalence check's branch table before sorting: one
    ``rng.choice`` per assignment, True for plus."""
    return np.array([rng.choice(("plus", "minus"), size=k) == "plus"
                     for _ in range(rows)])


def replay_program(program, psi, assignment):
    """Final state and record of ``program`` on one branch assignment.

    Interprets the instructions one at a time on the public one-state
    kernels: ``apply_matrix`` for local gates and corrections,
    ``switch_unitary`` for each switch, ``np.moveaxis`` to bring a measured
    ancilla last and ``measure_ancilla``. ``assignment`` maps each result
    label to its branch name. Returns the final state and the
    (label, branch, probability) records.
    """
    from switchsynth.linalg import PLUS, apply_matrix, tensor
    from switchsynth.programs import (
        AllocAncilla,
        ApplyLocal,
        CondApply,
        MeasureAncilla,
        SwitchApply,
    )
    from switchsynth.switch import measure_ancilla, switch_unitary

    state = np.asarray(psi, dtype=complex)
    ancillas = []  # live ancillas, in qubit order after the data qubits
    outcomes = {}
    record = []
    for inst in program.instructions:
        n = program.num_data_qubits + len(ancillas)
        if isinstance(inst, AllocAncilla):
            state = tensor(state, PLUS)
            ancillas.append(inst.ancilla)
        elif isinstance(inst, ApplyLocal):
            state = apply_matrix(state, program.matrices[inst.matrix], inst.qubits)
        elif isinstance(inst, SwitchApply):
            joint = switch_unitary(program.matrices[inst.gate_a],
                                   program.matrices[inst.gate_b]).matrix
            pos = program.num_data_qubits + ancillas.index(inst.ancilla)
            state = apply_matrix(state, joint, (*inst.qubits, pos))
        elif isinstance(inst, MeasureAncilla):
            pos = program.num_data_qubits + ancillas.index(inst.ancilla)
            state = np.moveaxis(state.reshape((2,) * n), pos, -1).reshape(-1)
            ancillas.remove(inst.ancilla)
            name = assignment[inst.result]
            plus, minus = measure_ancilla(state, inst.theta)
            outcome = plus if name == "plus" else minus
            state = outcome.post_state
            outcomes[inst.result] = name
            record.append((inst.result, name, outcome.probability))
        elif isinstance(inst, CondApply):
            if outcomes[inst.result] == inst.outcome:
                state = apply_matrix(state, program.matrices[inst.matrix],
                                     inst.qubits)
    return state, tuple(record)


def kronecker_four_term_map(ops_a, ops_b, rho, omega):
    """``switch._four_term_map`` as a loop over Kraus pairs.

    Each pair computes its anticommutator and commutator with 2-D products
    and adds its four terms as ``tensor(term, control weight)``, in pair then
    term order, to a zero start; the sum is scaled by 1/4.
    """
    from switchsynth.linalg import tensor

    z = PAULI["z"]
    out = np.zeros((rho.shape[0] * 2,) * 2, dtype=complex)
    omega_z = omega @ z
    z_omega = z @ omega
    z_omega_z = z @ omega @ z
    for ai in ops_a:
        for bj in ops_b:
            anti = ai @ bj + bj @ ai
            comm = ai @ bj - bj @ ai
            out += tensor(anti @ rho @ anti.conj().T, omega)
            out += tensor(anti @ rho @ comm.conj().T, omega_z)
            out += tensor(comm @ rho @ anti.conj().T, z_omega)
            out += tensor(comm @ rho @ comm.conj().T, z_omega_z)
    return 0.25 * out


def kronecker_switch_channel_n(channels, rho, omega):
    """The joint map of ``switch.switch_channel_n`` as a Kronecker loop.

    For each Kraus combination, each order's product is rebuilt from the
    identity with 2-D products, and the joint Kraus operator is the sum of
    ``tensor(product, |k><k|)`` over the orders k in lexicographic order.
    ``omega`` is the N!-dimensional control state; inputs are not checked.
    """
    from itertools import permutations, product

    from switchsynth.linalg import tensor

    dim = channels[0].dim
    orders = list(permutations(range(len(channels))))
    joint_in = tensor(rho, omega)
    out = np.zeros_like(joint_in)
    for combo in product(*[range(ch.rank) for ch in channels]):
        kraus = np.zeros((dim * len(orders),) * 2, dtype=complex)
        for k, order in enumerate(orders):
            prod_ = np.eye(dim, dtype=complex)
            for wire in order:
                prod_ = prod_ @ channels[wire].operators[combo[wire]]
            marker = np.zeros((len(orders),) * 2, dtype=complex)
            marker[k, k] = 1.0
            kraus += tensor(prod_, marker)
        out += kraus @ joint_in @ kraus.conj().T
    return out


def single_density_check(rho, atol=1e-10):
    """``linalg.is_density_matrix`` on one matrix, one check after another:
    finite, Hermitian residual, trace, then the smallest eigenvalue against
    the -1e-9 floor; any shape but a square 2-D one is not a density."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or not np.isfinite(rho).all():
        return False
    if np.linalg.norm(rho - rho.conj().T) > atol:
        return False
    if abs(np.trace(rho).real - 1.0) > atol or abs(np.trace(rho).imag) > atol:
        return False
    return bool(np.linalg.eigvalsh(rho).min() >= -1e-9)


# ---------------------------------------------------------------------------
# the single-qubit algebra as numpy expressions: linalg and synthesis build
# these 2x2s (and the 4x4s around them) from Python floats, and their bytes
# must equal these, signed zeros included
# ---------------------------------------------------------------------------

I2 = np.eye(2, dtype=complex)


def same_bytes(got, want) -> bool:
    """Equal dtype, shape and bytes: signed zeros and NaN payloads count."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def numpy_random_density(rng, dim):
    """A normalized Wishart density from two ``standard_normal`` calls."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def numpy_kraus_stack(rng, dim, rank):
    """(rank, dim, dim) Kraus operators: the QR of a (rank*dim) x dim complex
    Gaussian block from two ``standard_normal`` calls."""
    g = (rng.standard_normal((rank * dim, dim))
         + 1j * rng.standard_normal((rank * dim, dim)))
    q, _ = np.linalg.qr(g)
    return q.reshape(rank, dim, dim)


def numpy_bloch_dot(n):
    from switchsynth.linalg import unit_bloch

    v = unit_bloch(n)
    return v[0] * PAULI["x"] + v[1] * PAULI["y"] + v[2] * PAULI["z"]


def numpy_su2(n, angle, sign=1):
    if sign > 0:
        return np.cos(angle) * I2 + 1j * np.sin(angle) * numpy_bloch_dot(n)
    return np.cos(angle) * I2 - 1j * np.sin(angle) * numpy_bloch_dot(n)


def numpy_rotation(n, theta):
    half = 0.5 * theta
    return np.cos(half) * I2 - 1j * np.sin(half) * numpy_bloch_dot(n)


def numpy_two_qubit_rotation(n_first, n_second, theta):
    from switchsynth.linalg import tensor

    half = 0.5 * theta
    return (np.cos(half) * np.eye(4, dtype=complex)
            - 1j * np.sin(half) * tensor(numpy_bloch_dot(n_first),
                                         numpy_bloch_dot(n_second)))


def numpy_canonical_perp(n):
    from switchsynth.linalg import unit_bloch

    v = unit_bloch(n)
    p = np.array([0.0, 0.0, 1.0]) - v[2] * v
    norm = np.linalg.norm(p)
    if norm <= 1e-8:
        return np.array([1.0, 0.0, 0.0])
    return p / norm


def _numpy_controlled(u):
    from switchsynth.linalg import tensor

    return tensor(P0, I2) + tensor(P1, u)


def numpy_cu_matrix(spec):
    u = np.exp(1j * spec.alpha) * (np.cos(spec.theta) * I2
                                   + 1j * np.sin(spec.theta) * numpy_bloch_dot(spec.axis))
    return _numpy_controlled(u)


def fmod_normalize_angle(angle):
    """An angle's representative modulo 4*pi in (-2*pi, 2*pi], folded by
    ``math.fmod`` and one +/-4*pi correction."""
    import math

    two_pi = 2.0 * math.pi
    if -two_pi < angle <= two_pi:
        return angle
    folded = math.fmod(angle, 2.0 * two_pi)
    if folded <= -two_pi:
        folded += 2.0 * two_pi
    elif folded > two_pi:
        folded -= 2.0 * two_pi
    return folded


def numpy_barenco_matrix(alpha_b, phi_b, theta_b):
    import math

    axis = (math.cos(phi_b), math.sin(phi_b), 0.0)
    return _numpy_controlled(np.exp(1j * alpha_b) * numpy_rotation(axis, 2.0 * theta_b))


def numpy_plan_matrices(spec):
    """A plan's ten factors and five products, keyed by their plan names."""
    import math

    from switchsynth.linalg import tensor

    x, perp_dot = PAULI["x"], numpy_bloch_dot(spec.perp)
    factors = {
        "pre_control": x, "pre_target": perp_dot,
        "a_control": x, "a_target": perp_dot,
        "b_control": numpy_rotation((0.0, 0.0, 1.0), 0.5 * math.pi),
        "b_target": numpy_rotation(spec.axis, 0.5 * math.pi),
        "post_plus_control": numpy_rotation((0.0, 0.0, 1.0), spec.alpha + 0.5 * math.pi),
        "post_plus_target": numpy_rotation(spec.axis, -spec.theta + 0.5 * math.pi),
        "post_minus_control": numpy_rotation((0.0, 0.0, 1.0), spec.alpha - 0.5 * math.pi),
        "post_minus_target": numpy_rotation(spec.axis, -spec.theta - 0.5 * math.pi),
    }
    phase = complex(np.exp(0.5j * spec.alpha))
    products = {
        "pre": tensor(x, perp_dot),
        "gate_a": tensor(x, perp_dot),
        "gate_b": tensor(factors["b_control"], factors["b_target"]),
        "post_plus": phase * tensor(factors["post_plus_control"],
                                    factors["post_plus_target"]),
        "post_minus": phase * tensor(factors["post_minus_control"],
                                     factors["post_minus_target"]),
    }
    return {**factors, **products}


def rebuilt_block_residuals(plan, target, branches):
    """``block_residuals`` with the phase-free plus correction built again
    from its rotations, R_z(pi/2) (x) R_n(pi/2), not read as ``plan.gate_b``."""
    import math

    from switchsynth.linalg import (distance_up_to_phase, rotation, rotation_z,
                                    tensor, two_qubit_rotation)

    axis = plan.spec.axis
    s_plus, s_minus = branches
    rzn = two_qubit_rotation((0.0, 0.0, 1.0), axis, plan.spec.theta)
    bare_plus = tensor(rotation_z(0.5 * math.pi), rotation(axis, 0.5 * math.pi))
    bare_minus = tensor(rotation_z(-0.5 * math.pi), rotation(axis, -0.5 * math.pi))
    return (distance_up_to_phase(plan.post_plus @ s_plus @ plan.pre, target),
            distance_up_to_phase(plan.post_minus @ s_minus @ plan.pre, target),
            distance_up_to_phase(bare_plus @ s_plus @ plan.pre, rzn),
            distance_up_to_phase(bare_minus @ s_minus @ plan.pre, rzn))


def looped_channels_suite(trials, seed, tolerance=1e-10):
    """``run_suite("channels", trials, seed, tolerance)`` as a loop, one trial
    at a time.

    Each trial draws its two channels (Kraus ranks 1 + k % 2 and 2 - k % 2),
    rho and omega, runs the public ``switch_channel`` and ``switch_channel_n``
    on them (each checking its own states), takes every residual with
    ``np.linalg.norm``, ``np.trace`` and, on every eighth trial, the smallest
    eigenvalue of one Choi matrix, and feeds the suite's ledger.
    """
    from switchsynth.linalg import dagger, projector, tensor, zero_state
    from switchsynth.sampling import random_density, random_kraus_channel
    from switchsynth.suites import SUITES, _Ledger
    from switchsynth.switch import (
        _four_term_map,
        choi_matrix,
        switch_channel,
        switch_channel_n,
    )

    rng = np.random.default_rng(seed)
    worst = _Ledger({prop: tolerance if tol is None else tol
                     for prop, tol in SUITES["channels"][1].items()})
    for k in range(trials):
        worst.trial = k
        chan_a = random_kraus_channel(rng, 2, 1 + k % 2)
        chan_b = random_kraus_channel(rng, 2, 2 - k % 2)
        rho, omega = random_density(rng, 2), random_density(rng, 2)
        out = switch_channel(chan_a, chan_b, rho, omega)
        via_kraus = switch_channel_n([chan_a, chan_b], rho, omega)
        worst("four_term_vs_kraus_form", np.linalg.norm(out - via_kraus))
        worst("trace_preserving", abs(np.trace(out).real - 1.0), abs(np.trace(out).imag))
        worst("output_hermitian", np.linalg.norm(out - dagger(out)))
        if k % 8 == 0:
            choi = choi_matrix(
                lambda m: _four_term_map(chan_a.stack, chan_b.stack, m, omega), 2)
            worst("choi_positive", max(0.0, -float(np.linalg.eigvalsh(choi).min())))
        pure0 = projector(zero_state(1))
        fixed = switch_channel(chan_a, chan_b, rho, pure0)
        direct = np.zeros_like(fixed)
        for ka in chan_a.operators:
            for kb in chan_b.operators:
                ab = ka @ kb
                direct += tensor(ab @ rho @ dagger(ab), pure0)
        worst("definite_order_reduces", np.linalg.norm(fixed - direct))
    return worst.results("channels")
