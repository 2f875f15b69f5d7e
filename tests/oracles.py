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
