"""Named property suites over seeded random inputs.

Each suite feeds a ledger, per trial or a column at a time, the residuals of
the properties it declares once; ``run_suite`` returns one PropertyResult per
property with the worst residual seen (``linalg.worst``'s rule). Exact algebraic
identities are held to 1e-12 regardless of the caller tolerance, which
applies to the structural (1e-10 class) checks; the Choi eigenvalue floor
stays at -1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .jsonio import measured
from .linalg import (
    ALGEBRA_ATOL,
    DEFAULT_TOLERANCE,
    DENSITY_EIGVAL_FLOOR,
    I2,
    PLUS,
    X,
    dagger,
    frobenius,
    operator_schmidt_rank,
    projector,
    require_check_inputs,
    require_density,
    rotation,
    rotation_z,
    tensor,
    unitarity_residual,
    worst,
    worst_rank,
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
    switch_unitary,
    _four_term_map,
    _orders_map,
    _require_state_stacks,
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
    """The worst residual of one property; ``worst_trial`` is the 0-based
    trial that first reached it (for a count, the first trial that counted a
    failure, or 0), so ``run_suite(suite, trials=worst_trial + 1, seed=seed)``
    ends on it. It stays out of ``as_dict`` so documents keep their bytes."""

    suite: str
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    worst_trial: int

    def as_dict(self) -> dict:
        return {f.name: measured(getattr(self, f.name)) for f in fields(self)
                if f.name != "worst_trial"}


class _Ledger:
    """Each property's worst (value, trial) from (0.0, 0) by ``linalg.worst_rank``,
    in any feed order: ``worst(name, *residuals)`` of trial ``worst.trial``,
    ``worst.column(name, values, trials)``; ``worst.count(name, failed)``."""

    def __init__(self, tolerances: dict[str, float]):
        self.tolerances, self.trial = tolerances, 0
        self.held = dict.fromkeys(tolerances, (0.0, 0))  # name -> (value, trial)

    def __call__(self, name: str, *residuals) -> None:
        self.held[name] = max(self.held[name], *((value, self.trial) for value in residuals),
                              key=worst_rank)

    def column(self, name: str, values: np.ndarray, trials) -> None:
        """Feed ``values[i]`` of trial ``trials[i]``; ``trials`` ascend."""
        value, i = worst(values)
        self.held[name] = max(self.held[name], (value, trials[i]), key=worst_rank)

    def count(self, name: str, failed: bool) -> None:
        value, trial = self.held[name]
        if failed:
            self.held[name] = (value + 1, trial if value else self.trial)

    def results(self, suite: str) -> list[PropertyResult]:
        return [PropertyResult(suite, name, float(value), tolerance,
                               float(value) <= tolerance, trial)
                for (name, tolerance), (value, trial)
                in zip(self.tolerances.items(), self.held.values())]


def _switch_trial(rng, k: int, worst: _Ledger) -> None:
    dim = 2 if k % 2 == 0 else 4
    a, b = random_unitary(rng, dim), random_unitary(rng, dim)
    switch = switch_unitary(a, b)
    joint = switch.matrix
    worst("joint_unitarity", unitarity_residual(joint))
    anti = a @ b + b @ a
    comm = a @ b - b @ a
    half_form = 0.5 * (tensor(anti, I2) + tensor(comm, np.diag([1.0, -1.0])))
    worst("joint_forms_agree", np.linalg.norm(joint - half_form))

    theta = rng.uniform(-2 * math.pi, 2 * math.pi)
    psi = random_state(rng, 1 if dim == 2 else 2)
    staged = apply_switch(switch, psi, PLUS)
    plus, minus = measure_ancilla(staged, theta)
    worst("branch_probability_sum", abs(plus.probability + minus.probability - 1.0))

    s_plus, s_minus = branch_gates(a, b, theta)
    worst("branch_completeness", np.linalg.norm(
        dagger(s_plus) @ s_plus + dagger(s_minus) @ s_minus - 2 * np.eye(dim)))

    if dim == 2:
        rho, omega = random_density(rng, 2), random_density(rng, 2)
        via_channel = switch_channel(KrausChannel.from_unitary(a),
                                     KrausChannel.from_unitary(b), rho, omega)
        via_joint = joint @ tensor(rho, omega) @ dagger(joint)
        worst("unitary_channel_conjugation", np.linalg.norm(via_channel - via_joint))


def _synthesis_trial(rng, k: int, worst: _Ledger) -> None:
    spec = random_spec(rng)
    plan = synthesize(spec)
    target = cu_matrix(spec)
    branches = plan.branch_operators()
    plus, minus, bare_plus, bare_minus = block_residuals(plan, target, branches)
    worst("branch_reconstruction", plus, minus)
    worst("bare_corrections_entangler", bare_plus, bare_minus)

    scalar, local, entangling = cu_reference_decomposition(spec)
    worst("reference_decomposition", np.linalg.norm(scalar * local @ entangling - target))

    worst("local_conjugation_identities",
          *conjugation_identities(spec.axis, spec.perp).values())
    worst("control_factors_fixed", np.linalg.norm(plan.a_control - X),
          np.linalg.norm(plan.b_control - rotation_z(0.5 * math.pi)))
    worst("branch_unitarity", *unitarity_residual(np.stack(branches)))

    if k % 10 == 0:
        report = verify_synthesis(spec, trials=20, seed=int(rng.integers(2 ** 31)))
        worst("branch_probability_half", abs(report.branch_probabilities[0] - 0.5),
              abs(report.branch_probabilities[1] - 0.5))


def _random_noncommuting_pair(rng) -> tuple[np.ndarray, np.ndarray]:
    while True:
        a, b = random_unitary(rng, 2), random_unitary(rng, 2)
        if np.linalg.norm(a @ b - b @ a) > 1e-3:
            return a, b


def _separability_trial(rng, k: int, worst: _Ledger) -> None:
    a1, b1 = _random_noncommuting_pair(rng)
    a2, b2 = _random_noncommuting_pair(rng)

    worst.count("tensor_products_rank_one", operator_schmidt_rank(tensor(a1, b1)) != 1)

    for theta in (0.0, math.pi):
        for s in branch_gates_tensor([a1, a2], [b1, b2], theta):
            worst.count("separable_cases_rank_one", operator_schmidt_rank(s) != 1)
    axis = random_bloch(rng)
    commuting_pairs = ([rotation(axis, rng.uniform(0, 2 * math.pi)) for _ in range(2)],
                       [rotation(axis, rng.uniform(0, 2 * math.pi)) for _ in range(2)])
    for s in branch_gates_tensor(*commuting_pairs, rng.uniform(0.1, 3.0)):
        worst.count("separable_cases_rank_one", operator_schmidt_rank(s) != 1)

    for s in branch_gates_tensor([a1, a2], [b1, b2], math.pi / 3.0):
        worst.count("noncommuting_rank_two", operator_schmidt_rank(s) < 2)

    n = 2 if k % 2 == 0 else 3
    a_list = [random_unitary(rng, 2) for _ in range(n)]
    b_list = [random_unitary(rng, 2) for _ in range(n)]
    theta = rng.uniform(-2 * math.pi, 2 * math.pi)
    from_factors = branch_gates_tensor(a_list, b_list, theta)
    from_full = branch_gates(tensor(*a_list), tensor(*b_list), theta)
    worst("factorwise_branch_gates", np.linalg.norm(from_factors[0] - from_full[0]),
          np.linalg.norm(from_factors[1] - from_full[1]))


# trials the channels suite draws, then checks in stacked passes, at a time
CHANNELS_CHUNK = 256


def _channels_suite(rng, trials: int, worst: _Ledger) -> None:
    # Each trial draws its two channels (Kraus ranks 1 + k % 2 and 2 - k % 2),
    # then rho and omega, in trial order. A chunk's trials of one rank pattern
    # then run as one stacked pass, each row bit for bit the per-trial loop
    # that tests/oracles.py keeps, and feed the ledger a column per residual.
    pure0 = require_density(projector(zero_state(1)), "omega")
    for start in range(0, trials, CHANNELS_CHUNK):
        ks = range(start, min(start + CHANNELS_CHUNK, trials))
        draws = [(random_kraus_channel(rng, 2, 1 + k % 2),
                  random_kraus_channel(rng, 2, 2 - k % 2),
                  random_density(rng, 2), random_density(rng, 2)) for k in ks]
        for offset in (0, 1):
            if ks[offset::2]:
                _channels_pass(ks[offset::2], draws[offset::2], pure0, worst)


def _channels_pass(ks: range, draws: list, pure0: np.ndarray, worst: _Ledger) -> None:
    """Feed the ledger the residuals of trials ``ks`` (one Kraus-rank pattern)."""
    chans_a, chans_b, rhos, omegas = zip(*draws)
    # Kraus operator i of every trial at [i]: (rank, trials, 2, 2)
    ops_a = np.asarray([c.stack for c in chans_a]).swapaxes(0, 1)
    ops_b = np.asarray([c.stack for c in chans_b]).swapaxes(0, 1)
    rhos, omegas = np.asarray(rhos), np.asarray(omegas)
    _require_state_stacks(rhos, omegas)
    out = _four_term_map(ops_a, ops_b, rhos, omegas)
    via_kraus = _orders_map([ops_a, ops_b], rhos, omegas)
    traces = out.diagonal(0, 1, 2).sum(axis=1)  # C order: summed as np.trace sums
    fixed = _four_term_map(ops_a, ops_b, rhos, np.broadcast_to(pure0, omegas.shape))
    direct = np.zeros_like(fixed)
    for ka in ops_a:
        for kb in ops_b:
            ab = ka @ kb
            direct += tensor(ab @ rhos @ dagger(ab), pure0)
    worst.column("four_term_vs_kraus_form", frobenius(out - via_kraus), ks)
    worst.column("trace_preserving", np.abs(traces.real - 1.0), ks)
    worst.column("trace_preserving", np.abs(traces.imag), ks)
    worst.column("output_hermitian", frobenius(out - dagger(out)), ks)
    sub = [j for j, k in enumerate(ks) if k % 8 == 0]
    if sub:
        stack = choi_matrix(lambda m: _four_term_map(ops_a[:, sub], ops_b[:, sub], m,
                                                     omegas[sub]), 2)
        worst.column("choi_positive", -np.linalg.eigvalsh(stack).min(axis=1),
                     [ks[j] for j in sub])
    worst.column("definite_order_reduces", frobenius(fixed - direct), ks)


def _each_trial(trial):
    """A suite that runs ``trial(rng, k, worst)`` for each trial k in order."""
    def run(rng, trials: int, worst: _Ledger) -> None:
        for worst.trial in range(trials):
            trial(rng, worst.trial, worst)
    return run


# suite name -> (its run(rng, trials, ledger), the tolerances of the
# properties it feeds its ledger, in report order; None for the caller's
# tolerance)
SUITES = {
    "switch": (_each_trial(_switch_trial), dict(
        joint_unitarity=None, joint_forms_agree=ALGEBRA_ATOL, branch_probability_sum=None,
        branch_completeness=None, unitary_channel_conjugation=ALGEBRA_ATOL)),
    "synthesis": (_each_trial(_synthesis_trial), dict(
        branch_reconstruction=None, bare_corrections_entangler=None,
        reference_decomposition=ALGEBRA_ATOL, local_conjugation_identities=ALGEBRA_ATOL,
        control_factors_fixed=ALGEBRA_ATOL, branch_unitarity=None,
        branch_probability_half=None)),
    "separability": (_each_trial(_separability_trial), dict(
        tensor_products_rank_one=0.0, separable_cases_rank_one=0.0,
        noncommuting_rank_two=0.0, factorwise_branch_gates=ALGEBRA_ATOL)),
    "channels": (_channels_suite, dict(
        four_term_vs_kraus_form=ALGEBRA_ATOL, trace_preserving=None,
        choi_positive=-DENSITY_EIGVAL_FLOOR, output_hermitian=None,
        definite_order_reduces=ALGEBRA_ATOL)),
}
SUITE_NAMES = (*SUITES, "all")


def run_suite(name: str, trials: int = 100, seed: int = 42,
              tolerance: float = DEFAULT_TOLERANCE) -> list[PropertyResult]:
    """Run one suite (or 'all') and return its property results; each suite
    runs its trials in order on its own generator, seeded with ``seed``."""
    trials, seed = require_check_inputs(trials, seed, tolerance)
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}, expected one of {SUITE_NAMES}")
    results = []
    for suite in (SUITES if name == "all" else (name,)):
        run, tolerances = SUITES[suite]
        worst = _Ledger({prop: tolerance if tol is None else tol
                         for prop, tol in tolerances.items()})
        run(np.random.default_rng(seed), trials, worst)
        results += worst.results(suite)
    return results
