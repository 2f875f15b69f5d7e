"""Named property suites over seeded random inputs.

Each suite returns one PropertyResult per invariant with the worst residual
seen. Exact algebraic identities are held to 1e-12 regardless of the caller
tolerance, which applies to the structural (1e-10 class) checks; the Choi
eigenvalue floor stays at -1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .linalg import (
    ALGEBRA_ATOL,
    DEFAULT_TOLERANCE,
    DENSITY_EIGVAL_FLOOR,
    I2,
    PLUS,
    X,
    dagger,
    operator_schmidt_rank,
    projector,
    require_check_inputs,
    rotation,
    rotation_z,
    tensor,
    unitarity_residual,
    zero_state,
)
from .sampling import (
    random_bloch,
    random_density,
    random_kraus_channel,
    random_state,
    random_unitary,
)
from .switch import (
    KrausChannel,
    apply_switch,
    branch_gates,
    branch_gates_tensor,
    choi_matrix,
    measure_ancilla,
    switch_channel,
    switch_channel_n,
    switch_unitary,
    _four_term_map,
)
from .synthesis import (
    block_residuals,
    conjugation_identities,
    cu_matrix,
    cu_reference_decomposition,
    random_spec,
    synthesize,
    verify_synthesis,
)


@dataclass(frozen=True)
class PropertyResult:
    suite: str
    name: str
    max_residual: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _result(suite: str, name: str, residual: float,
            tolerance: float) -> PropertyResult:
    return PropertyResult(suite, name, float(residual), tolerance,
                          float(residual) <= tolerance)


def suite_switch(trials: int, seed: int, tolerance: float) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    unitarity = 0.0
    forms = 0.0
    prob_sum = 0.0
    completeness = 0.0
    conjugation = 0.0
    for k in range(trials):
        dim = 2 if k % 2 == 0 else 4
        a = random_unitary(rng, dim)
        b = random_unitary(rng, dim)
        switch = switch_unitary(a, b)
        joint = switch.matrix
        unitarity = max(unitarity, unitarity_residual(joint))
        anti = a @ b + b @ a
        comm = a @ b - b @ a
        half_form = 0.5 * (tensor(anti, I2) + tensor(comm, np.diag([1.0, -1.0])))
        forms = max(forms, np.linalg.norm(joint - half_form))

        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        psi = random_state(rng, 1 if dim == 2 else 2)
        staged = apply_switch(switch, psi, PLUS)
        plus, minus = measure_ancilla(staged, theta)
        prob_sum = max(prob_sum, abs(plus.probability + minus.probability - 1.0))

        s_plus, s_minus = branch_gates(a, b, theta)
        completeness = max(completeness, np.linalg.norm(
            dagger(s_plus) @ s_plus + dagger(s_minus) @ s_minus - 2 * np.eye(dim)))

        if dim == 2:
            rho = random_density(rng, 2)
            omega = random_density(rng, 2)
            via_channel = switch_channel(KrausChannel.from_unitary(a),
                                         KrausChannel.from_unitary(b), rho, omega)
            via_joint = joint @ tensor(rho, omega) @ dagger(joint)
            conjugation = max(conjugation, np.linalg.norm(via_channel - via_joint))
    return [
        _result("switch", "joint_unitarity", unitarity, tolerance),
        _result("switch", "joint_forms_agree", forms, ALGEBRA_ATOL),
        _result("switch", "branch_probability_sum", prob_sum, tolerance),
        _result("switch", "branch_completeness", completeness, tolerance),
        _result("switch", "unitary_channel_conjugation", conjugation, ALGEBRA_ATOL),
    ]


def suite_synthesis(trials: int, seed: int, tolerance: float) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    reconstruction = 0.0
    bare = 0.0
    reference = 0.0
    identities = 0.0
    control_fixed = 0.0
    branch_unitarity = 0.0
    prob_dev = 0.0
    rz_half = rotation_z(0.5 * math.pi)
    for k in range(trials):
        spec = random_spec(rng)
        plan = synthesize(spec)
        target = cu_matrix(spec)
        branches = plan.branch_operators()
        plus, minus, bare_plus, bare_minus = block_residuals(plan, target, branches)
        reconstruction = max(reconstruction, plus, minus)
        bare = max(bare, bare_plus, bare_minus)

        scalar, local, entangling = cu_reference_decomposition(spec)
        reference = max(reference,
                        np.linalg.norm(scalar * local @ entangling - target))

        identities = max(identities,
                         max(conjugation_identities(spec.axis, spec.perp).values()))
        control_fixed = max(control_fixed,
                            np.linalg.norm(plan.a_control - X),
                            np.linalg.norm(plan.b_control - rz_half))
        branch_unitarity = max(branch_unitarity, *unitarity_residual(np.stack(branches)))

        if k % 10 == 0:
            report = verify_synthesis(spec, trials=20,
                                      seed=int(rng.integers(2 ** 31)),
                                      tolerance=tolerance)
            prob_dev = max(prob_dev,
                           abs(report.branch_probabilities[0] - 0.5),
                           abs(report.branch_probabilities[1] - 0.5))
    return [
        _result("synthesis", "branch_reconstruction", reconstruction, tolerance),
        _result("synthesis", "bare_corrections_entangler", bare, tolerance),
        _result("synthesis", "reference_decomposition", reference, ALGEBRA_ATOL),
        _result("synthesis", "local_conjugation_identities", identities,
                ALGEBRA_ATOL),
        _result("synthesis", "control_factors_fixed", control_fixed, ALGEBRA_ATOL),
        _result("synthesis", "branch_unitarity", branch_unitarity, tolerance),
        _result("synthesis", "branch_probability_half", prob_dev, tolerance),
    ]


def _random_noncommuting_pair(rng) -> tuple[np.ndarray, np.ndarray]:
    while True:
        a = random_unitary(rng, 2)
        b = random_unitary(rng, 2)
        if np.linalg.norm(a @ b - b @ a) > 1e-3:
            return a, b


def suite_separability(trials: int, seed: int, tolerance: float) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    tensor_rank = 0
    separable = 0
    entangling = 0
    factorwise = 0.0
    for k in range(trials):
        a1, b1 = _random_noncommuting_pair(rng)
        a2, b2 = _random_noncommuting_pair(rng)

        if operator_schmidt_rank(tensor(a1, b1)) != 1:
            tensor_rank += 1

        for theta in (0.0, math.pi):
            for s in branch_gates_tensor([a1, a2], [b1, b2], theta):
                if operator_schmidt_rank(s) != 1:
                    separable += 1
        axis = random_bloch(rng)
        commuting_pairs = ([rotation(axis, rng.uniform(0, 2 * math.pi)) for _ in range(2)],
                           [rotation(axis, rng.uniform(0, 2 * math.pi)) for _ in range(2)])
        for s in branch_gates_tensor(*commuting_pairs, rng.uniform(0.1, 3.0)):
            if operator_schmidt_rank(s) != 1:
                separable += 1

        for s in branch_gates_tensor([a1, a2], [b1, b2], math.pi / 3.0):
            if operator_schmidt_rank(s) < 2:
                entangling += 1

        n = 2 if k % 2 == 0 else 3
        a_list = [random_unitary(rng, 2) for _ in range(n)]
        b_list = [random_unitary(rng, 2) for _ in range(n)]
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        from_factors = branch_gates_tensor(a_list, b_list, theta)
        from_full = branch_gates(tensor(*a_list), tensor(*b_list), theta)
        factorwise = max(factorwise, np.linalg.norm(from_factors[0] - from_full[0]),
                    np.linalg.norm(from_factors[1] - from_full[1]))
    return [
        _result("separability", "tensor_products_rank_one", float(tensor_rank), 0.0),
        _result("separability", "separable_cases_rank_one", float(separable), 0.0),
        _result("separability", "noncommuting_rank_two", float(entangling), 0.0),
        _result("separability", "factorwise_branch_gates", factorwise, ALGEBRA_ATOL),
    ]


def suite_channels(trials: int, seed: int, tolerance: float) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    forms = 0.0
    trace = 0.0
    choi_floor = 0.0
    hermiticity = 0.0
    definite_order = 0.0
    for k in range(trials):
        rank_a = 1 + k % 2
        rank_b = 2 - k % 2
        chan_a = random_kraus_channel(rng, 2, rank_a)
        chan_b = random_kraus_channel(rng, 2, rank_b)
        rho = random_density(rng, 2)
        omega = random_density(rng, 2)
        out = switch_channel(chan_a, chan_b, rho, omega)
        via_kraus = switch_channel_n([chan_a, chan_b], rho, omega)
        forms = max(forms, np.linalg.norm(out - via_kraus))
        trace = max(trace, abs(np.trace(out).real - 1.0), abs(np.trace(out).imag))
        hermiticity = max(hermiticity, np.linalg.norm(out - dagger(out)))
        if k % 8 == 0:
            choi = choi_matrix(
                lambda m: _four_term_map(chan_a.operators, chan_b.operators,
                                         m, omega), 2)
            choi_floor = max(choi_floor,
                             max(0.0, -float(np.linalg.eigvalsh(choi).min())))
        pure0 = projector(zero_state(1))
        fixed = switch_channel(chan_a, chan_b, rho, pure0)
        direct = np.zeros_like(fixed)
        for ka in chan_a.operators:
            for kb in chan_b.operators:
                ab = ka @ kb
                direct += tensor(ab @ rho @ dagger(ab), pure0)
        definite_order = max(definite_order, np.linalg.norm(fixed - direct))
    return [
        _result("channels", "four_term_vs_kraus_form", forms, ALGEBRA_ATOL),
        _result("channels", "trace_preserving", trace, tolerance),
        _result("channels", "choi_positive", choi_floor, -DENSITY_EIGVAL_FLOOR),
        _result("channels", "output_hermitian", hermiticity, tolerance),
        _result("channels", "definite_order_reduces", definite_order, ALGEBRA_ATOL),
    ]


SUITES = {
    "switch": suite_switch,
    "synthesis": suite_synthesis,
    "separability": suite_separability,
    "channels": suite_channels,
}
SUITE_NAMES = (*SUITES, "all")


def run_suite(name: str, trials: int = 100, seed: int = 42,
              tolerance: float = DEFAULT_TOLERANCE) -> list[PropertyResult]:
    """Run one suite (or 'all') and return its property results."""
    require_check_inputs(trials, tolerance)
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}, expected one of {SUITE_NAMES}")
    return [result for suite in (SUITES if name == "all" else (name,))
            for result in SUITES[suite](trials, seed, tolerance)]
