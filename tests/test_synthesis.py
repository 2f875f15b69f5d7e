import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from switchsynth.linalg import (
    MAX_TRIALS,
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
    block_residuals,
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


@pytest.mark.parametrize("tilt", [0.0, *(10.0 ** -e for e in range(2, 13))])
@pytest.mark.parametrize("nz", [1.0, -1.0])
def test_an_axis_near_z_gets_an_orthogonal_default_perp_and_is_certified(nz, tilt):
    # near +-z, 1 - z * z has lost its digits and x-hat is off by n_x
    rng = np.random.default_rng(int(tilt * 1e12) + 7)
    for phi in rng.uniform(0.0, 2 * math.pi, 4):
        n = np.array([tilt * math.cos(phi), tilt * math.sin(phi), nz])
        spec = ControlledGateSpec(alpha=0.3, theta=1.0, axis=n / np.linalg.norm(n))
        assert abs(np.array(spec.axis) @ np.array(spec.perp)) <= 1e-12
        assert verify_synthesis(spec, trials=4).passed


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


@pytest.mark.parametrize("kwargs,message", [
    ({"trials": True}, "trials must be an integer, got True"),
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"seed": 1.0}, "seed must be a non-negative integer, got 1.0"),
])
def test_verify_synthesis_validates_trials_and_seed(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_synthesis(preset("cnot"), **kwargs)
    report = verify_synthesis(preset("cnot"), trials=np.int64(3), seed=np.uint8(7))
    assert (type(report.trials), type(report.seed)) == (int, int)


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
    original = switch.joint_matrix
    for module in (synthesis, switch):
        monkeypatch.setattr(module, "joint_matrix", lambda a, b: original(a, a))
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


def test_verify_synthesis_rejects_trials_above_the_limit_before_sampling(
        monkeypatch):
    def never(*args):
        raise AssertionError("trial states were sampled")
    monkeypatch.setattr(synthesis, "random_states", never)
    with pytest.raises(ValueError, match=f"trials must be at most {MAX_TRIALS}"):
        verify_synthesis(preset("cnot"), trials=MAX_TRIALS + 1)


@pytest.mark.parametrize("factor", ["a_target", "b_control"])
def test_verify_synthesis_refuses_a_non_unitary_switched_gate(monkeypatch, factor):
    plan = dataclasses.replace(synthesize(preset("cnot")), **{factor: 2 * I2})
    monkeypatch.setattr(synthesis, "synthesize", lambda spec: plan)
    with pytest.raises(ValueError, match=f"^{factor[0]} is not unitary within 1e-10$"):
        verify_synthesis(preset("cnot"), trials=5)


def test_block_residuals_are_the_reported_residuals():
    rng = np.random.default_rng(17)
    for spec in (preset("cnot"), preset_barenco(0.2, 0.9, 1.7),
                 *(random_spec(rng) for _ in range(20))):
        plan = synthesize(spec)
        plus, minus, bare_plus, bare_minus = block_residuals(
            plan, cu_matrix(spec), plan.branch_operators())
        report = verify_synthesis(spec, trials=1)
        assert (report.residual_plus, report.residual_minus) == (plus, minus)
        assert report.bare_correction_residual == max(bare_plus, bare_minus)
        assert max(plus, minus, bare_plus, bare_minus) <= 1e-12


@pytest.mark.parametrize("field", ["alpha", "theta"])
@pytest.mark.parametrize("value,message", [
    ("1", "must be a real number, got '1'"),
    (True, "must be a real number, got True"),
    (None, "must be a real number, got None"),
    (10 ** 400, "must be finite, got inf"),
], ids=["str", "bool", "none", "huge_int"])
def test_spec_refuses_an_angle_that_is_not_a_real_number_by_name(field, value, message):
    params = {"alpha": 0.5, "theta": 1.0, "axis": (0.0, 0.0, 1.0), field: value}
    with pytest.raises(ValueError, match=f"^{field} {re.escape(message)}$"):
        ControlledGateSpec(**params)


def test_spec_stores_an_int_or_numpy_real_angle_as_a_float():
    spec = ControlledGateSpec(alpha=1, theta=np.int64(2), axis=(0.0, 0.0, 1.0))
    assert (type(spec.alpha), type(spec.theta)) == (float, float)
    assert (spec.alpha, spec.theta) == (1.0, 2.0)


# --- the plan slot and read-only plans ----------------------------------------

FACTORS = tuple(f.name for f in dataclasses.fields(synthesis.SynthesisPlan)
                if f.name.endswith(("_control", "_target")))


def plan_arrays(plan):
    return [getattr(plan, name) for name in (*FACTORS, *synthesis.PLAN_MATRICES)]


def same_plan_bytes(got, want):
    return (repr((got.measurement_theta, got.phase))
            == repr((want.measurement_theta, want.phase))
            and all(oracles.same_bytes(g, w)
                    for g, w in zip(plan_arrays(got), plan_arrays(want))))


def test_synthesize_returns_its_last_plan_for_the_same_spec_object():
    spec = preset("cnot")
    assert synthesize(spec) is synthesize(spec)


def test_synthesize_builds_again_after_another_spec():
    spec = preset("cnot")
    first = synthesize(spec)
    synthesize(preset("cz"))
    again = synthesize(spec)
    assert again is not first and same_plan_bytes(again, first)


def test_specs_that_differ_in_a_signed_zero_get_their_own_plans():
    plus_zero = ControlledGateSpec(alpha=0.0, theta=1.0, axis=(0.0, 0.0, 1.0))
    minus_zero = ControlledGateSpec(alpha=-0.0, theta=1.0, axis=(0.0, 0.0, 1.0))
    assert plus_zero == minus_zero  # equal under ==, yet not the same spec
    plans = [synthesize(spec) for spec in (plus_zero, minus_zero)]
    assert plans[0] is not plans[1]
    for spec, plan in zip((plus_zero, minus_zero), plans):
        assert plan.spec is spec
        assert same_plan_bytes(plan, synthesize(dataclasses.replace(spec)))
    assert [math.copysign(1.0, plan.spec.alpha) for plan in plans] == [1.0, -1.0]


def verified_specs():
    rng = np.random.default_rng(29)
    return (preset("cnot"), preset("cz"), preset_barenco(0.3, 1.1, -0.4),
            *(random_spec(rng) for _ in range(6)))


def test_verify_synthesis_reuses_the_plan_its_caller_just_built(monkeypatch):
    built, real = [], synthesis.SynthesisPlan

    def counted(**fields):
        built.append(None)
        return real(**fields)
    monkeypatch.setattr(synthesis, "SynthesisPlan", counted)
    spec = preset("cnot")
    synthesize(spec)
    verify_synthesis(spec, trials=3)
    assert len(built) == 1


@pytest.mark.parametrize("index", range(9))
def test_verify_synthesis_after_synthesize_matches_a_fresh_spec(index):
    spec = verified_specs()[index]
    synthesize(spec)
    reused = verify_synthesis(spec, trials=30, seed=5)
    fresh = verify_synthesis(dataclasses.replace(spec), trials=30, seed=5)
    assert repr(reused.as_dict()) == repr(fresh.as_dict())
    assert reused.worst_trial == fresh.worst_trial


def test_every_array_of_a_plan_refuses_a_write():
    plan = synthesize(preset("cnot"))
    assert len(FACTORS) == 10
    for name, array in zip((*FACTORS, *synthesis.PLAN_MATRICES), plan_arrays(plan)):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 5
        assert not array.flags.writeable, name
    assert oracles.same_bytes(plan.pre, tensor(plan.pre_control, plan.pre_target))


def test_block_residuals_match_the_rebuilt_bare_correction_bitwise():
    rng = np.random.default_rng(31)
    for spec in (preset("cnot"), preset("cz"), preset_barenco(0.2, 0.9, 1.7),
                 *(random_spec(rng) for _ in range(200))):
        plan = synthesize(spec)
        args = (plan, cu_matrix(spec), plan.branch_operators())
        assert repr(block_residuals(*args)) == repr(oracles.rebuilt_block_residuals(*args))


def _fold_angles():
    """Angles the fold must keep bit for bit: signed zeros, subnormals, every
    multiple of 2*pi up to the bound with its neighbours, and seeded values."""
    rng = np.random.default_rng(28)
    bound = synthesis.MAX_FOLDED_ANGLE
    angles = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0, bound,
              math.nextafter(bound, 0.0)]
    for k in range(1, int(bound / (2 * math.pi)) + 1, 7):
        a = 2 * math.pi * k
        angles += [a, math.nextafter(a, 0.0), math.nextafter(a, math.inf)]
    angles += rng.uniform(0.0, bound, 20_000).tolist()
    angles += np.exp(rng.uniform(-740.0, math.log(bound), 20_000)).tolist()
    angles += rng.uniform(0.0, 30.0, 20_000).tolist()
    return [a for a in angles if a <= bound] + [-a for a in angles if a <= bound]


def test_normalize_angle_is_the_fmod_fold_bit_for_bit():
    for angle in _fold_angles():
        got, want = normalize_angle(angle), oracles.fmod_normalize_angle(angle)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), angle


@pytest.mark.parametrize("value", [2.0 ** 20 * (1 + 2 ** -52), 1e12, -1e12, 10 ** 30,
                                   1.7976931348623157e308])
def test_normalize_angle_refuses_angles_past_the_exact_fold(value):
    # the message prints the magnitude: a barenco spec folds -theta
    with pytest.raises(ValueError, match=rf"^\|theta\| must be at most 2\*\*20, "
                                         rf"got {re.escape(repr(abs(float(value))))}$"):
        normalize_angle(value, "theta")
    with pytest.raises(ValueError, match=r"^\|alpha\| must be at most 2\*\*20"):
        preset_barenco(value, 0.7, 0.3)


@pytest.mark.parametrize("theta", [1.7976931348623157e308, -1.7976931348623157e308])
def test_barenco_matrix_at_the_largest_angles_is_finite_without_a_warning(theta):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.isfinite(barenco_matrix(0.3, 0.7, theta)).all()


@pytest.mark.parametrize("tolerance", [True, False, "1e-9", None])
def test_verify_synthesis_refuses_a_tolerance_that_is_not_a_real_number(tolerance):
    with pytest.raises(ValueError, match=f"^tolerance must be a real number, "
                                         f"got {re.escape(repr(tolerance))}$"):
        verify_synthesis(preset("cnot"), trials=3, tolerance=tolerance)


@pytest.mark.parametrize("tolerance", [10 ** 400, -(10 ** 400)], ids=["huge", "huge_negative"])
def test_verify_synthesis_refuses_an_int_tolerance_beyond_float_range(tolerance):
    with pytest.raises(ValueError, match="^tolerance must be finite and at least 0, got "):
        verify_synthesis(preset("cnot"), trials=3, tolerance=tolerance)


@pytest.mark.parametrize("tolerance", [np.float64(1e-9), 0])
def test_verify_synthesis_accepts_numpy_and_int_tolerances(tolerance):
    assert verify_synthesis(preset("cnot"), trials=3, tolerance=tolerance).tolerance == tolerance
