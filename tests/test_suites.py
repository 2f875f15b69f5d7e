import math

import pytest

from switchsynth.suites import SUITE_NAMES, SUITES, run_suite

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
