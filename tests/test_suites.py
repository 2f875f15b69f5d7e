import math
import re

import numpy as np
import pytest

from switchsynth import suites
from switchsynth.suites import SUITE_NAMES, SUITES, _Ledger, run_suite

import oracles

EXPECTED_COUNTS = {
    "switch": 5,
    "synthesis": 7,
    "separability": 4,
    "channels": 5,
}


def test_suite_names():
    assert set(SUITES) == set(EXPECTED_COUNTS)
    assert SUITE_NAMES == (*SUITES, "all")


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_each_suite_passes(name):
    results = run_suite(name, trials=16, seed=11)
    assert len(results) == EXPECTED_COUNTS[name]
    for result in results:
        assert result.suite == name
        assert result.passed, f"{result.suite}/{result.name}: " \
                              f"{result.max_residual} > {result.tolerance}"


def test_run_all_concatenates():
    results = run_suite("all", trials=8, seed=11)
    assert len(results) == sum(EXPECTED_COUNTS.values())
    assert [r.suite for r in results] == sorted(
        [r.suite for r in results],
        key=list(SUITES).index)


def test_run_suite_is_deterministic():
    first = [r.as_dict() for r in run_suite("switch", trials=8, seed=11)]
    second = [r.as_dict() for r in run_suite("switch", trials=8, seed=11)]
    assert first == second


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("everything")


def test_property_result_dict_shape():
    result = run_suite("channels", trials=4, seed=11)[0]
    doc = result.as_dict()
    assert set(doc) == {"suite", "name", "max_residual", "tolerance", "passed"}


@pytest.mark.parametrize("name", ["switch", "all"])
def test_run_suite_rejects_zero_trials(name):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_suite(name, trials=0)


@pytest.mark.parametrize("kwargs,message", [
    ({"trials": True}, "trials must be an integer, got True"),
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"seed": "1"}, "seed must be a non-negative integer, got '1'"),
])
def test_run_suite_validates_trials_and_seed(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_suite("switch", **kwargs)


@pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
def test_run_suite_rejects_bad_tolerances(tolerance):
    with pytest.raises(ValueError, match="tolerance must be finite and at least 0"):
        run_suite("switch", trials=1, tolerance=tolerance)


@pytest.mark.parametrize("seed", [1, 42])
def test_worst_trial_reruns_to_the_same_value(seed):
    results = run_suite("all", trials=12, seed=seed)
    assert any(r.worst_trial > 0 for r in results)
    for result in results:
        again = run_suite(result.suite, trials=result.worst_trial + 1, seed=seed)
        rerun, = (r for r in again if r.name == result.name)
        assert (rerun.max_residual, rerun.worst_trial) == (result.max_residual,
                                                           result.worst_trial)


def test_ledger_keeps_the_first_trial_of_a_maximum_and_of_a_count():
    worst = _Ledger({"residual": 1.0, "failures": 0.0})
    for worst.trial, (residual, failed) in enumerate(
            [(0.5, False), (2.0, True), (2.0, False), (1.0, True)]):
        worst("residual", 0.0, residual)
        worst.count("failures", failed)
    residual, failures = worst.results("s")
    assert (residual.max_residual, residual.worst_trial, residual.passed) == (2.0, 1, False)
    assert (failures.max_residual, failures.worst_trial, failures.passed) == (2.0, 1, False)


def _same_results(got, want):
    return ([(r.name, r.max_residual.hex(), r.worst_trial, r.passed) for r in got]
            == [(r.name, r.max_residual.hex(), r.worst_trial, r.passed) for r in want])


@pytest.mark.parametrize("trials", [1, 2, 7, 8, 9, 16, 20, 33, 100])
def test_channels_suite_is_the_per_trial_loop_bitwise(trials):
    for seed in range(12):
        assert _same_results(run_suite("channels", trials, seed),
                             oracles.looped_channels_suite(trials, seed)), seed


@pytest.mark.parametrize("chunk", [1, 3, 4, 7])
def test_channels_suite_chunks_do_not_change_results(monkeypatch, chunk):
    monkeypatch.setattr(suites, "CHANNELS_CHUNK", chunk)
    for trials, seed in [(1, 0), (7, 1), (8, 2), (9, 3), (33, 4)]:
        assert _same_results(run_suite("channels", trials, seed),
                             oracles.looped_channels_suite(trials, seed)), (trials, seed)


def test_channels_suite_crosses_its_own_chunk_size():
    trials = suites.CHANNELS_CHUNK + 9
    assert _same_results(run_suite("channels", trials, 5),
                         oracles.looped_channels_suite(trials, 5))


def test_channels_suite_sees_one_perturbed_trial(monkeypatch):
    # the odd trials (Kraus ranks 2 and 1) run as one stack: row 3 is trial 7
    four_term = suites._four_term_map

    def perturbed(ops_a, ops_b, rho, omega):
        out = four_term(ops_a, ops_b, rho, omega)
        if out.ndim == 3 and len(ops_a) == 2:
            out[3, 0, 0] += 1e-6
        return out

    monkeypatch.setattr(suites, "_four_term_map", perturbed)
    result, = (r for r in run_suite("channels", trials=20, seed=3)
               if r.name == "four_term_vs_kraus_form")
    assert not result.passed and result.worst_trial == 7
    assert result.max_residual == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("tolerance", [10 ** 400, -(10 ** 400)], ids=["huge", "huge_negative"])
def test_run_suite_refuses_an_int_tolerance_beyond_float_range(tolerance):
    with pytest.raises(ValueError, match="^tolerance must be finite and at least 0, got "):
        run_suite("switch", trials=1, tolerance=tolerance)


@pytest.mark.parametrize("tolerance", [True, False, "1e-9", None])
def test_run_suite_refuses_a_tolerance_that_is_not_a_real_number(tolerance):
    with pytest.raises(ValueError, match=f"^tolerance must be a real number, got "
                                         f"{re.escape(repr(tolerance))}$"):
        run_suite("switch", trials=1, tolerance=tolerance)


@pytest.mark.parametrize("tolerance", [np.float64(1e-9), 0])
def test_run_suite_accepts_numpy_and_int_tolerances(tolerance):
    # the exact identities keep their own 1e-12
    assert any(r.tolerance == tolerance for r in run_suite("switch", trials=1,
                                                           tolerance=tolerance))
