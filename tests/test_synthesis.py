import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from switchsynth.linalg import (
    I2,
    X,
    Z,
    dagger,
    distance_up_to_phase,
    operator_schmidt_rank,
    rotation,
    rotation_x,
    rotation_z,
    tensor,
)
from switchsynth import switch, synthesis
from switchsynth.sampling import random_bloch
from switchsynth.synthesis import (
    ControlledGateSpec,
    conjugation_identities,
    barenco_matrix,
    cu_matrix,
    cu_reference_decomposition,
    normalize_angle,
    preset,
    preset_barenco,
    random_spec,
    synthesize,
    verify_synthesis,
)

import oracles

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)


@pytest.mark.parametrize("angle,expected", [
    (0.0, 0.0),
    (math.pi, math.pi),
    (2 * math.pi, 2 * math.pi),
    (-2 * math.pi, 2 * math.pi),
    (4 * math.pi, 0.0),
    (5 * math.pi, math.pi),
    (-5 * math.pi, -math.pi),
    (9 * math.pi, math.pi),
    (-7.5 * math.pi, 0.5 * math.pi),
])
def test_normalize_angle_cases(angle, expected):
    assert normalize_angle(angle) == pytest.approx(expected, abs=1e-12)


def test_normalize_angle_four_pi_periodicity():
    rng = np.random.default_rng(2)
    for _ in range(300):
        angle = rng.uniform(-30, 30)
        folded = normalize_angle(angle)
        assert -2 * math.pi < folded <= 2 * math.pi + 1e-15
        assert normalize_angle(angle + 4 * math.pi) == pytest.approx(folded, abs=1e-10)
        assert_allclose(rotation_z(folded), rotation_z(angle), atol=1e-10)


def test_spec_normalizes_and_defaults_perp():
    spec = ControlledGateSpec(alpha=5 * math.pi, theta=-6 * math.pi,
                              axis=(1.0, 0.0, 0.0))
    assert spec.alpha == pytest.approx(math.pi)
    assert spec.theta == pytest.approx(2 * math.pi)
    assert spec.perp == (0.0, 0.0, 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        ControlledGateSpec(0.0, 0.0, (1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        ControlledGateSpec(0.0, 0.0, (1.0, 0.0, 0.0), perp=(2.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        ControlledGateSpec(0.0, 0.0, (1.0, 0.0, 0.0), perp=(1.0, 0.0, 0.0))


def test_cu_matrix_presets_are_cnot_and_cz():
    assert_allclose(cu_matrix(preset("cnot")), CNOT, atol=1e-15)
    assert_allclose(cu_matrix(preset("cz")), CZ, atol=1e-15)
    with pytest.raises(ValueError):
        preset("toffoli")


def test_cu_matrix_matches_exponential_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        spec = random_spec(rng)
        want = oracles.exponentiated_cu(spec.alpha, spec.theta, spec.axis)
        assert np.linalg.norm(cu_matrix(spec) - want) < 1e-12


def test_cu_reference_decomposition():
    rng = np.random.default_rng(7)
    for _ in range(100):
        spec = random_spec(rng)
        scalar, local, entangling = cu_reference_decomposition(spec)
        assert np.linalg.norm(scalar * local @ entangling - cu_matrix(spec)) < 1e-12
        assert operator_schmidt_rank(local) == 1
    spec = ControlledGateSpec(0.3, math.pi / 3, (0.0, 1.0, 0.0))
    _, _, entangling = cu_reference_decomposition(spec)
    assert operator_schmidt_rank(entangling) == 2


def test_plan_structure():
    plan = synthesize(preset("cnot"))
    assert plan.measurement_theta == pytest.approx(math.pi / 2)
    assert plan.phase == pytest.approx(np.exp(-0.25j * math.pi))
    assert_allclose(plan.pre, plan.gate_a, atol=0)
    assert_allclose(plan.a_control, X, atol=0)
    assert_allclose(plan.b_control, rotation_z(math.pi / 2), atol=0)


def test_plan_fixed_gates_for_cnot():
    # axis x, perp z: P = A = X (x) Z, B = R_z(pi/2) (x) R_x(pi/2),
    # F_plus = e^{-i pi/4} I, F_minus = -e^{-i pi/4} Z (x) X
    plan = synthesize(preset("cnot"))
    assert_allclose(plan.pre, tensor(X, Z), atol=1e-15)
    assert_allclose(plan.gate_b, tensor(rotation_z(math.pi / 2),
                                        rotation_x(math.pi / 2)), atol=1e-15)
    phase = np.exp(-0.25j * math.pi)
    assert_allclose(plan.post_plus, phase * np.eye(4), atol=1e-12)
    assert_allclose(plan.post_minus, -phase * tensor(Z, X), atol=1e-12)


def test_plan_fixed_gates_for_cz():
    # axis z falls back to perp x: P = X (x) X, F_minus = -e^{-i pi/4} Z (x) Z
    plan = synthesize(preset("cz"))
    assert_allclose(plan.pre, tensor(X, X), atol=1e-15)
    assert_allclose(plan.gate_b, tensor(rotation_z(math.pi / 2),
                                        rotation_z(math.pi / 2)), atol=1e-15)
    phase = np.exp(-0.25j * math.pi)
    assert_allclose(plan.post_plus, phase * np.eye(4), atol=1e-12)
    assert_allclose(plan.post_minus, -phase * tensor(Z, Z), atol=1e-12)


def test_both_branches_reconstruct_target():
    rng = np.random.default_rng(11)
    for _ in range(200):
        spec = random_spec(rng)
        plan = synthesize(spec)
        target = cu_matrix(spec)
        s_plus, s_minus = plan.branch_operators()
        assert distance_up_to_phase(plan.post_plus @ s_plus @ plan.pre,
                                    target) < 1e-10
        assert distance_up_to_phase(plan.post_minus @ s_minus @ plan.pre,
                                    target) < 1e-10


def test_branch_operators_are_unitary_for_synthesis_pairs():
    rng = np.random.default_rng(13)
    for _ in range(200):
        plan = synthesize(random_spec(rng))
        for s in plan.branch_operators():
            assert np.linalg.norm(dagger(s) @ s - np.eye(4)) < 1e-12


def test_bare_corrections_give_entangling_rotation():
    rng = np.random.default_rng(17)
    for _ in range(200):
        spec = random_spec(rng)
        plan = synthesize(spec)
        s_plus, s_minus = plan.branch_operators()
        rzn = cu_reference_decomposition(spec)[2]
        bare_plus = tensor(rotation_z(math.pi / 2), rotation(spec.axis, math.pi / 2))
        bare_minus = tensor(rotation_z(-math.pi / 2), rotation(spec.axis, -math.pi / 2))
        assert distance_up_to_phase(bare_plus @ s_plus @ plan.pre, rzn) < 1e-10
        assert distance_up_to_phase(bare_minus @ s_minus @ plan.pre, rzn) < 1e-10


def test_barenco_matrix_matches_spec_mapping():
    rng = np.random.default_rng(19)
    for _ in range(200):
        alpha_b, phi_b, theta_b = rng.uniform(0, 2 * math.pi, size=3)
        spec = preset_barenco(alpha_b, phi_b, theta_b)
        assert spec.perp == (0.0, 0.0, 1.0)
        assert np.linalg.norm(cu_matrix(spec)
                              - barenco_matrix(alpha_b, phi_b, theta_b)) < 1e-12


def test_barenco_matrix_matches_exponential_oracle():
    rng = np.random.default_rng(23)
    for _ in range(100):
        alpha_b, phi_b, theta_b = rng.uniform(0, 2 * math.pi, size=3)
        axis = (math.cos(phi_b), math.sin(phi_b), 0.0)
        want = oracles.exponentiated_cu(alpha_b, -theta_b, axis)
        assert np.linalg.norm(barenco_matrix(alpha_b, phi_b, theta_b) - want) < 1e-12


def test_barenco_synthesis_small_grid():
    grid = np.linspace(0.0, 2 * math.pi, 5, endpoint=False)
    for alpha_b in grid:
        for phi_b in grid:
            for theta_b in grid:
                spec = preset_barenco(alpha_b, phi_b, theta_b)
                plan = synthesize(spec)
                target = barenco_matrix(alpha_b, phi_b, theta_b)
                s_plus, s_minus = plan.branch_operators()
                assert distance_up_to_phase(plan.post_plus @ s_plus @ plan.pre,
                                            target) < 1e-10
                assert distance_up_to_phase(plan.post_minus @ s_minus @ plan.pre,
                                            target) < 1e-10


def test_conjugation_identities_hold():
    rng = np.random.default_rng(29)
    for _ in range(100):
        residuals = conjugation_identities(random_bloch(rng))
        assert set(residuals) == {"control_conjugation", "target_conjugation",
                                  "control_absorption", "target_absorption"}
        assert max(residuals.values()) < 1e-12
    with pytest.raises(ValueError):
        conjugation_identities((1.0, 0.0, 0.0), perp=(1.0, 0.0, 0.0))


def test_random_spec_ranges():
    rng = np.random.default_rng(31)
    for _ in range(200):
        spec = random_spec(rng)
        assert -2 * math.pi < spec.alpha <= 2 * math.pi
        assert -2 * math.pi < spec.theta <= 2 * math.pi
        axis = np.array(spec.axis)
        assert abs(axis @ axis - 1.0) < 1e-12


def test_verify_synthesis_report():
    report = verify_synthesis(preset("cnot"), trials=50, seed=7,
                              target_name="cnot")
    assert report.passed
    assert report.target_name == "cnot"
    assert report.trials == 50 and report.seed == 7
    assert report.residual_plus < 1e-10
    assert report.residual_minus < 1e-10
    assert report.bare_correction_residual < 1e-10
    assert report.max_infidelity < 1e-10
    for p in report.branch_probabilities:
        assert p == pytest.approx(0.5, abs=1e-10)
    doc = report.as_dict()
    assert doc["passed"] is True
    assert doc["target"] == "cnot"
    assert doc["branch_probabilities"] == list(report.branch_probabilities)


def test_verify_synthesis_is_deterministic():
    spec = ControlledGateSpec(1.1, -0.4, (0.0, 0.6, 0.8))
    a = verify_synthesis(spec, trials=20, seed=3)
    b = verify_synthesis(spec, trials=20, seed=3)
    assert a.as_dict() == b.as_dict()


@pytest.mark.parametrize("spec,seed,name,expected", [
    (preset("cnot"), 42, "cnot", {
        "residual_plus": 2.5685758932822867e-16,
        "residual_minus": 2.5685758932822867e-16,
        "bare_correction_residual": 3.1401849173675503e-16,
        "branch_probabilities": [0.49999999999999967, 0.4999999999999999],
        "max_infidelity": 8.881784197001252e-16}),
    (preset_barenco(0.3, 1.1, -0.7), 7, "barenco", {
        "residual_plus": 5.356892953237942e-16,
        "residual_minus": 5.144769267725452e-16,
        "bare_correction_residual": 3.005778677035688e-16,
        "branch_probabilities": [0.49999999999999967, 0.49999999999999994],
        "max_infidelity": 8.881784197001252e-16}),
    (ControlledGateSpec(alpha=1.3, theta=-2.1, axis=(0.48, 0.6, 0.64)), 11,
     "cu", {
        "residual_plus": 4.579711878084121e-16,
        "residual_minus": 4.150564991218456e-16,
        "bare_correction_residual": 7.301351988545593e-16,
        "branch_probabilities": [0.49999999999999944, 0.49999999999999956],
        "max_infidelity": 4.440892098500626e-16}),
])
def test_verify_synthesis_report_is_unchanged(spec, seed, name, expected):
    report = verify_synthesis(spec, trials=100, seed=seed, target_name=name)
    assert report.as_dict() == {"target": name, **expected, "trials": 100,
                                "seed": seed, "tolerance": 1e-10,
                                "passed": True}


def test_verify_synthesis_unreachable_tolerance_fails():
    report = verify_synthesis(preset("cz"), trials=5, tolerance=1e-300)
    assert not report.passed


def test_verify_synthesis_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials must be at least 1"):
        verify_synthesis(preset("cnot"), trials=0)


@pytest.mark.parametrize("spec,trials,seed,name,expected", [
    (preset("cz"), 100, 5, "cz", {
        "residual_plus": 3.268980133568449e-16,
        "residual_minus": 2.873478384096454e-16,
        "bare_correction_residual": 3.1401849173675503e-16,
        "branch_probabilities": [0.49999999999999967, 0.4999999999999999],
        "max_infidelity": 6.661338147750939e-16}),
    (ControlledGateSpec(alpha=-2.7, theta=0.4, axis=(0.0, 0.8, -0.6)), 257,
     2023, "cu", {
        "residual_plus": 4.590674876688926e-16,
        "residual_minus": 4.0179970572189874e-16,
        "bare_correction_residual": 4.584996238741895e-16,
        "branch_probabilities": [0.49999999999999944, 0.4999999999999995],
        "max_infidelity": 6.661338147750939e-16}),
    (preset_barenco(1.9, -0.3, 2.2), 1, 0, "barenco", {
        "residual_plus": 3.8126578838815295e-16,
        "residual_minus": 4.69237670789928e-16,
        "bare_correction_residual": 6.004779025828582e-16,
        "branch_probabilities": [0.5, 0.5],
        "max_infidelity": 4.440892098500626e-16}),
], ids=["cz", "cu_257_trials", "barenco_1_trial"])
def test_verify_synthesis_more_reports_are_unchanged(spec, trials, seed, name,
                                                     expected):
    # values recorded from the per-trial loop the stacked pass replaced
    report = verify_synthesis(spec, trials=trials, seed=seed, target_name=name)
    assert report.as_dict() == {"target": name, **expected, "trials": trials,
                                "seed": seed, "tolerance": 1e-10,
                                "passed": True}


@pytest.mark.parametrize("trials", [1, 2, 100, 257])
def test_verify_synthesis_matches_the_per_trial_loop_bitwise(trials):
    rng = np.random.default_rng(1000 + trials)
    for draw in range(50):
        spec = random_spec(rng)
        report = verify_synthesis(spec, trials=trials, seed=draw)
        pair, max_infidelity, worst_trial = oracles.looped_verify_trials(
            spec, trials, draw)
        # repr tells float from numpy float and -0.0 from 0.0
        assert repr(report.branch_probabilities) == repr(pair)
        assert repr(report.max_infidelity) == repr(max_infidelity)
        assert report.worst_trial == worst_trial


def test_verify_synthesis_checks_every_staged_state(monkeypatch):
    draw = synthesis.random_states

    def two_rows_scaled(rng, num_qubits, count):
        # one row up, one down: the stack's total squared norm stays count
        states = draw(rng, num_qubits, count)
        states[37] *= 1.0 + 1e-6
        states[12] *= np.sqrt(2.0 - (1.0 + 1e-6) ** 2)
        return states

    monkeypatch.setattr(synthesis, "random_states", two_rows_scaled)
    with pytest.raises(ValueError, match="state is not normalized"):
        verify_synthesis(preset("cnot"), trials=50)


@pytest.mark.filterwarnings("error")  # no 0/0 for the empty branch
def test_verify_synthesis_scores_a_zero_probability_branch(monkeypatch):
    # A and A in both orders leave the control in |+>, and a measurement in
    # the |+>, |-> basis then never gives minus: that branch has probability
    # 0 on every trial and counts as infidelity 1, as in the per-trial loop
    original = switch.switch_unitary
    for module in (synthesis, switch):
        monkeypatch.setattr(module, "switch_unitary", lambda a, b: original(a, a))
        monkeypatch.setattr(module, "branch_functionals", lambda theta: (
            np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
            np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)))
    report = verify_synthesis(preset("cnot"), trials=20, seed=3)
    assert report.max_infidelity == 1.0
    assert report.branch_probabilities[1] == 0.0
    assert report.worst_trial == 0
    assert not report.passed
    pair, max_infidelity, worst_trial = oracles.looped_verify_trials(
        preset("cnot"), 20, 3)
    assert repr(report.branch_probabilities) == repr(pair)
    assert (report.max_infidelity, report.worst_trial) == (max_infidelity,
                                                           worst_trial)


def test_verify_synthesis_counts_a_cut_branch_as_infidelity_one(monkeypatch):
    # with the cut above 1/2, both branches of every trial are cut
    monkeypatch.setattr(switch, "ZERO_BRANCH_ATOL", 0.75)
    report = verify_synthesis(preset("cnot"), trials=5)
    assert report.branch_probabilities == (0.0, 0.0)
    assert report.max_infidelity == 1.0
    assert not report.passed


def test_worst_trial_is_reproduced_by_a_shorter_run():
    rng = np.random.default_rng(77)
    for seed in range(20):
        spec = random_spec(rng)
        report = verify_synthesis(spec, trials=100, seed=seed)
        assert 0 <= report.worst_trial < 100
        again = verify_synthesis(spec, trials=report.worst_trial + 1, seed=seed)
        assert again.worst_trial == report.worst_trial
        assert again.max_infidelity == report.max_infidelity


def test_worst_trial_stays_out_of_the_document():
    report = verify_synthesis(preset("cnot"), trials=10)
    assert "worst_trial" not in report.as_dict()


@pytest.mark.parametrize("tolerance", [math.nan, -1.0, -1e-300, math.inf])
def test_verify_synthesis_rejects_bad_tolerances(tolerance):
    with pytest.raises(ValueError, match="tolerance must be finite and at least 0"):
        verify_synthesis(preset("cnot"), trials=5, tolerance=tolerance)


def test_verify_synthesis_accepts_zero_tolerance():
    assert verify_synthesis(preset("cz"), trials=5, tolerance=0.0).tolerance == 0.0


@pytest.mark.parametrize("field", ["alpha", "theta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_angles(field, value):
    params = {"alpha": 0.5, "theta": 1.0, "axis": (0.0, 0.0, 1.0), field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ControlledGateSpec(**params)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_normalize_angle_rejects_non_finite_angles(value):
    # inf used to raise "math domain error" and nan came back unchanged
    with pytest.raises(ValueError, match="angle must be finite"):
        normalize_angle(value)


@pytest.mark.parametrize("axis", [(math.nan, 0.0, 0.0), (1.0, math.nan, 0.0)])
def test_spec_rejects_a_nan_axis(axis):
    with pytest.raises(ValueError, match="axis must be a unit vector"):
        ControlledGateSpec(alpha=0.5, theta=1.0, axis=axis)
