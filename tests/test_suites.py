import math

import pytest

from switchsynth.suites import SUITE_NAMES, SUITES, _Ledger, run_suite

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
