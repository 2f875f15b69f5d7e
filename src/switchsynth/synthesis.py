"""Controlled-gate synthesis from single-qubit gates in superposed orders.

Target family: CU(alpha, theta, n) = |0><0| (x) I + |1><1| (x) U with
U = e^{i alpha} (cos(theta) I + i sin(theta) n.sigma). The recipe realizes
any such gate deterministically with a switched pair of single-qubit gate
products:

    pre     P = X (x) (n_perp . sigma)
    pair    A = P,  B = R_z(pi/2) (x) R_n(pi/2)
    measure the control at angle theta
    correct F_pm = e^{i alpha/2} (R_z(alpha +- pi/2) (x) R_n(-theta +- pi/2))

Both measurement branches occur with probability exactly 1/2 and both
reconstruct CU exactly, so nothing is post-selected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jsonio import report_document
from .linalg import (
    DEFAULT_TOLERANCE,
    PLUS,
    X,
    bloch_dot,
    canonical_perp,
    distance_up_to_phase,
    fidelity,
    matvecs,
    read_only,
    require_angle,
    require_check_inputs,
    rotation,
    rotation_z,
    su2,
    tensor,
    two_qubit_rotation,
    unit_bloch,
    worst,
)
from .sampling import random_bloch, random_states
from .switch import (
    branch_functionals,
    branch_gates,
    joint_matrix,
    project_branches,
)

TWO_PI = 2.0 * math.pi
ORTHOGONALITY_ATOL = 1e-10
Z_HAT = (0.0, 0.0, 1.0)
# a plan's five two-qubit matrices, in the order a switch block applies them
PLAN_MATRICES = ("pre", "gate_a", "gate_b", "post_plus", "post_minus")
MAX_FOLDED_ANGLE = 2.0 ** 20


def normalize_angle(angle: float, name: str = "angle") -> float:
    """Canonical representative of a finite angle modulo 4*pi, in (-2*pi, 2*pi],
    by one exact remainder. The double 4*pi is 4.9e-16 short, so the fold drifts
    by |angle| * 3.9e-17 rad: an |angle| above ``MAX_FOLDED_ANGLE`` is refused."""
    angle = require_angle(angle, name)
    if abs(angle) > MAX_FOLDED_ANGLE:
        raise ValueError(f"|{name}| must be at most 2**20, got {abs(angle)!r}")
    folded = math.remainder(angle, 2.0 * TWO_PI)
    return TWO_PI if folded == -TWO_PI else folded


@dataclass(frozen=True)
class ControlledGateSpec:
    """Parameters (alpha, theta, axis) of a target controlled gate.

    Angles must be finite and ``axis`` must be unit; ``perp`` must be unit
    and orthogonal to it and defaults to a deterministic perpendicular.
    Angles, at most 2**20 in magnitude, are stored folded into (-2*pi, 2*pi].
    """

    alpha: float
    theta: float
    axis: tuple[float, float, float]
    perp: tuple[float, float, float] | None = None

    def __post_init__(self):
        for name in ("alpha", "theta"):
            object.__setattr__(self, name, normalize_angle(getattr(self, name), name))
        axis = unit_bloch(self.axis, "axis")
        object.__setattr__(self, "axis", tuple(axis.tolist()))
        perp = canonical_perp(axis) if self.perp is None else unit_bloch(self.perp, "perp")
        if abs(axis @ perp) > ORTHOGONALITY_ATOL:
            raise ValueError("perp must be orthogonal to axis")
        object.__setattr__(self, "perp", tuple(perp.tolist()))


@dataclass(frozen=True, eq=False)
class SynthesisPlan:
    """Everything needed to run one controlled gate through the switch.

    Joint operators factor as control (x) target; the factors are stored
    individually and the full matrices, named by ``PLAN_MATRICES``, are
    built with the plan and shared read-only (``synthesize`` makes the
    factors read-only too). ``phase`` is the scalar
    e^{i alpha/2} shared by both corrections, kept separate from their
    unitary factors.
    """

    spec: ControlledGateSpec
    measurement_theta: float
    phase: complex
    pre_control: np.ndarray
    pre_target: np.ndarray
    a_control: np.ndarray
    a_target: np.ndarray
    b_control: np.ndarray
    b_target: np.ndarray
    post_plus_control: np.ndarray
    post_plus_target: np.ndarray
    post_minus_control: np.ndarray
    post_minus_target: np.ndarray
    pre: np.ndarray = field(init=False, repr=False)
    gate_a: np.ndarray = field(init=False, repr=False)
    gate_b: np.ndarray = field(init=False, repr=False)
    post_plus: np.ndarray = field(init=False, repr=False)
    post_minus: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        products = (
            tensor(self.pre_control, self.pre_target),
            tensor(self.a_control, self.a_target),
            tensor(self.b_control, self.b_target),
            self.phase * tensor(self.post_plus_control, self.post_plus_target),
            self.phase * tensor(self.post_minus_control, self.post_minus_target))
        read_only(*products)
        for name, m in zip(PLAN_MATRICES, products):
            object.__setattr__(self, name, m)

    def branch_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """Effective switched operators S_plus, S_minus for this plan."""
        return branch_gates(self.gate_a, self.gate_b, self.measurement_theta)


@dataclass(frozen=True)
class VerificationReport:
    """Numerical certificate for one synthesis plan.

    Residuals are phase-invariant Frobenius distances; branch probabilities
    come from the trial whose plus probability is farthest from 1/2.
    ``passed`` requires every residual, the probability deviation from 1/2,
    and the worst state infidelity to sit within ``tolerance``.

    ``worst_trial`` is the 0-based first trial with the largest infidelity
    (NaN first); ``verify_synthesis(spec, trials=worst_trial + 1, seed=seed)``
    ends on it. It stays out of ``as_dict`` so documents keep their bytes.
    """

    target_name: str
    residual_plus: float
    residual_minus: float
    bare_correction_residual: float
    branch_probabilities: tuple[float, float]
    max_infidelity: float
    trials: int
    seed: int
    tolerance: float
    passed: bool
    worst_trial: int

    as_dict = report_document  # target_name is written as "target"


def _controlled(u: np.ndarray) -> np.ndarray:
    """``tensor(P0, I2) + tensor(P1, u)``: u's parts plus 0.0 (no -0.0)."""
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = u + 0.0
    return out


def cu_matrix(spec: ControlledGateSpec) -> np.ndarray:
    """Target matrix |0><0| (x) I + |1><1| (x) e^{i alpha}(cos theta I + i sin theta n.sigma)."""
    return _controlled(np.exp(1j * spec.alpha) * su2(*spec.axis, spec.theta))


def cu_reference_decomposition(
        spec: ControlledGateSpec) -> tuple[complex, np.ndarray, np.ndarray]:
    """CU as scalar * local * entangling.

    Returns (e^{i alpha/2}, R_z(alpha) (x) R_n(-theta), R_{zn}(theta)) whose
    product reproduces cu_matrix(spec); the last factor is the only
    entangling piece.
    """
    scalar = complex(np.exp(0.5j * spec.alpha))
    local = tensor(rotation_z(spec.alpha), rotation(spec.axis, -spec.theta))
    entangling = two_qubit_rotation(Z_HAT, spec.axis, spec.theta)
    return scalar, local, entangling


# the last (spec, plan) pair synthesize built, swapped as one tuple: the
# plan a caller just built is handed back when verify_synthesis asks for the
# same spec object (``is``: specs equal under == can differ in a signed zero)
_last = (None, None)


def synthesize(spec: ControlledGateSpec) -> SynthesisPlan:
    """Build the switched realization of cu_matrix(spec).

    The control factor of A is always X and of B always R_z(pi/2); only the
    target factors and the corrections depend on the spec. Every array of
    the plan is read-only, and a second call with the same spec object
    returns the same plan.
    """
    global _last
    last_spec, plan = _last
    if last_spec is spec:
        return plan
    perp_dot = bloch_dot(spec.perp)
    factors = dict(
        pre_control=X,
        pre_target=perp_dot,
        a_control=X,
        a_target=perp_dot,
        b_control=rotation_z(0.5 * math.pi),
        b_target=rotation(spec.axis, 0.5 * math.pi),
        post_plus_control=rotation_z(spec.alpha + 0.5 * math.pi),
        post_plus_target=rotation(spec.axis, -spec.theta + 0.5 * math.pi),
        post_minus_control=rotation_z(spec.alpha - 0.5 * math.pi),
        post_minus_target=rotation(spec.axis, -spec.theta - 0.5 * math.pi),
    )
    read_only(*factors.values())
    plan = SynthesisPlan(spec=spec, measurement_theta=spec.theta,
                         phase=complex(np.exp(0.5j * spec.alpha)), **factors)
    _last = (spec, plan)
    return plan


_PRESETS = {
    "cnot": dict(alpha=-0.5 * math.pi, theta=0.5 * math.pi, axis=(1.0, 0.0, 0.0)),
    "cz": dict(alpha=-0.5 * math.pi, theta=0.5 * math.pi, axis=(0.0, 0.0, 1.0)),
}


def preset(name: str) -> ControlledGateSpec:
    """Spec for a named gate: 'cnot' or 'cz'."""
    try:
        params = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}, expected one of "
                         f"{sorted(_PRESETS)}") from None
    return ControlledGateSpec(**params)


def preset_barenco(alpha_b: float, phi_b: float, theta_b: float) -> ControlledGateSpec:
    """Spec for the universal three-angle controlled gate.

    The target block is e^{i alpha_b} R_{n(phi_b)}(2 theta_b) with the axis
    n(phi_b) = (cos phi_b, sin phi_b, 0) in the equatorial plane, which maps
    onto (alpha, theta, n) = (alpha_b, -theta_b, n(phi_b)).
    """
    axis = (math.cos(phi_b), math.sin(phi_b), 0.0)
    return ControlledGateSpec(alpha=alpha_b, theta=-theta_b, axis=axis,
                              perp=(0.0, 0.0, 1.0))


def barenco_matrix(alpha_b: float, phi_b: float, theta_b: float) -> np.ndarray:
    """Direct matrix of the universal three-angle controlled gate."""
    return _controlled(np.exp(1j * alpha_b)  # R_n(2 theta_b), n = (cos phi_b, sin phi_b, 0)
                       * su2(math.cos(phi_b), math.sin(phi_b), 0.0, theta_b, -1))


def conjugation_identities(n, perp=None) -> dict[str, float]:
    """Residuals of the conjugation identities behind the branch corrections.

    With p = n_perp: X R_z(pi/2) X = R_z(-pi/2),
    (p.sigma) R_n(pi/2) (p.sigma) = R_n(-pi/2), R_z(pi/2) X X = R_z(pi/2),
    and R_n(pi/2) (p.sigma) (p.sigma) = R_n(pi/2). All hold exactly.
    """
    spec = ControlledGateSpec(alpha=0.0, theta=0.0, axis=n, perp=perp)  # checks n, perp
    p_dot = bloch_dot(spec.perp)
    rz_half = rotation_z(0.5 * math.pi)
    rn_half = rotation(spec.axis, 0.5 * math.pi)

    def resid(lhs, rhs):
        return float(np.linalg.norm(lhs - rhs))

    return {
        "control_conjugation": resid(X @ rz_half @ X, rotation_z(-0.5 * math.pi)),
        "target_conjugation": resid(p_dot @ rn_half @ p_dot,
                                    rotation(spec.axis, -0.5 * math.pi)),
        "control_absorption": resid(rz_half @ X @ X, rz_half),
        "target_absorption": resid(rn_half @ p_dot @ p_dot, rn_half),
    }


def random_spec(rng: np.random.Generator) -> ControlledGateSpec:
    """Random target with uniform angles in (-2*pi, 2*pi) and a Haar axis."""
    return ControlledGateSpec(
        alpha=float(rng.uniform(-TWO_PI, TWO_PI)),
        theta=float(rng.uniform(-TWO_PI, TWO_PI)),
        axis=tuple(random_bloch(rng)),
    )


def block_residuals(plan: SynthesisPlan, target: np.ndarray,
                    branches) -> tuple[float, float, float, float]:
    """Phase-invariant residuals of a plan's blocks, (S_plus, S_minus) = ``branches``.

    Returns (residual_plus, residual_minus, bare_plus, bare_minus): the
    distances of F_pm S_pm P from ``target`` (CU), and of the phase-free
    corrections (R_z(+-pi/2) (x) R_n(+-pi/2)) S_pm P from R_{zn}(theta).
    """
    axis = plan.spec.axis
    s_plus, s_minus = branches
    rzn = two_qubit_rotation(Z_HAT, axis, plan.spec.theta)
    bare_plus = plan.gate_b  # R_z(pi/2) (x) R_n(pi/2)
    bare_minus = tensor(rotation_z(-0.5 * math.pi), rotation(axis, -0.5 * math.pi))
    return (distance_up_to_phase(plan.post_plus @ s_plus @ plan.pre, target),
            distance_up_to_phase(plan.post_minus @ s_minus @ plan.pre, target),
            distance_up_to_phase(bare_plus @ s_plus @ plan.pre, rzn),
            distance_up_to_phase(bare_minus @ s_minus @ plan.pre, rzn))


def verify_synthesis(spec: ControlledGateSpec, *, trials: int = 100,
                     seed: int = 42, tolerance: float = DEFAULT_TOLERANCE,
                     target_name: str = "cu") -> VerificationReport:
    """Certify a plan against the direct target matrix.

    Checks both branch reconstructions F_pm S_pm P = CU, the
    corrections-without-phases identity
    (R_z(+-pi/2) (x) R_n(+-pi/2)) S_pm P = R_{zn}(theta), and then runs the
    full pipeline (pre gate, switch, measurement, correction) on ``trials``
    random input states, recording branch probabilities and the worst-case
    infidelity against CU acting directly. The trials run as one stack, with
    the same bits as running them one at a time.
    """
    trials, seed = require_check_inputs(trials, seed, tolerance)
    plan = synthesize(spec)
    target = cu_matrix(spec)
    # branch_operators checks the switched pair as switch_unitary does
    residual_plus, residual_minus, *bare = block_residuals(
        plan, target, plan.branch_operators())
    bare_correction_residual = worst(bare)[0]

    # apply_switch then measure_ancilla on every trial at once, one trial per
    # row; project_branches checks each trial's staged state for normalization
    psi = random_states(np.random.default_rng(seed), 2, trials)
    expected = matvecs(target, psi)
    staged = matvecs(joint_matrix(plan.gate_a, plan.gate_b),
                     tensor(matvecs(plan.pre, psi), PLUS))
    branches = project_branches(staged, branch_functionals(plan.measurement_theta))
    # a zero-probability branch counts as infidelity 1
    infidelity = np.maximum(*(
        np.where(prob > 0.0, 1.0 - fidelity(expected, matvecs(post_gate, post)), 1.0)
        for (prob, post), post_gate in zip(branches, (plan.post_plus, plan.post_minus))))
    max_infidelity, worst_trial = worst(infidelity)
    # rounding can put 1 - fidelity just below 0; the floor keeps a NaN
    max_infidelity = max(max_infidelity, 0.0)
    (p_plus, _), (p_minus, _) = branches
    worst_dev, farthest = worst(np.abs(p_plus - 0.5))  # the first trial farthest from 1/2
    worst_pair = (float(p_plus[farthest]), float(p_minus[farthest]))

    passed = (residual_plus <= tolerance and residual_minus <= tolerance
              and bare_correction_residual <= tolerance and worst_dev <= tolerance
              and max_infidelity <= tolerance)
    return VerificationReport(
        target_name=target_name,
        residual_plus=residual_plus,
        residual_minus=residual_minus,
        bare_correction_residual=bare_correction_residual,
        branch_probabilities=worst_pair,
        max_infidelity=max_infidelity,
        trials=trials,
        seed=seed,
        tolerance=tolerance,
        passed=passed,
        worst_trial=worst_trial,
    )
