"""One worst-case rule for every sampled check (``linalg.worst``): the largest
value, a NaN above every number, a tie to the smallest key. A NaN residual
measured nothing, so it fails its report, which names it; documents write it
as null in JSON and nan in text, and the CLI exits 1."""

import json
import math
import random
from itertools import product

import numpy as np
import pytest

from switchsynth import lowering, programs, suites, synthesis
from switchsynth.circuits import parse_circuit, simulate_circuit
from switchsynth.cli import main
from switchsynth.jsonio import dumps
from switchsynth.linalg import fidelity, worst, worst_rank
from switchsynth.lowering import check_equivalence, lower
from switchsynth.programs import (
    AllocAncilla,
    Discard,
    MeasureAncilla,
    SwitchProgram,
    serialize_program,
    simulate_program,
)
from switchsynth.sampling import random_state
from switchsynth.suites import run_suite
from switchsynth.synthesis import preset, verify_synthesis

NAN = math.nan
TWO_CNOTS = "qubits 3\ncnot 0 1\ncz 1 2\n"


def _same(got, want):
    """Equal pairs, a NaN value equal to a NaN."""
    return (got[1] == want[1] and (got[0] == want[0]
                                   or (math.isnan(got[0]) and math.isnan(want[0]))))


@pytest.mark.parametrize("values,keys,expected", [
    ([1.0, 3.0, 3.0, 2.0], None, (3.0, 1)),
    ([1.0, NAN, 3.0, NAN], None, (NAN, 1)),
    ([NAN, NAN], None, (NAN, 0)),
    ([-2.0, -1.0, -1.0], None, (-1.0, 1)),
    ([2.0, 5.0, 5.0, 1.0], [9, 7, 3, 0], (5.0, 3)),
    ([NAN, 1.0, NAN, 4.0], [5, 0, 2, 1], (NAN, 2)),
    ([0.5], [12], (0.5, 12)),
], ids=["tie_first", "nan_first", "all_nan", "negative", "keyed_tie", "keyed_nan",
        "one"])
def test_worst_ranks_nan_first_and_ties_by_the_smallest_key(values, keys, expected):
    values = np.array(values)
    got = worst(values, None if keys is None else np.array(keys))
    assert _same(got, expected)
    assert type(got[0]) is float and type(got[1]) is int
    pairs = list(zip(values.tolist(), range(len(values)) if keys is None else keys))
    assert _same(max(pairs, key=worst_rank), expected)


def test_worst_rank_folds_to_worst_in_any_order():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 8)
        values = [rng.choice([NAN, 0.0, -0.0, 1.0, 2.0, -1.0]) for _ in range(n)]
        keys = rng.sample(range(20), n)
        want = worst(np.array(values), np.array(keys))
        pairs = list(zip(values, keys))
        for _ in range(3):
            rng.shuffle(pairs)
            assert _same(max(pairs, key=worst_rank), want)


# --- verify_synthesis --------------------------------------------------------

def _fidelity_nan_at(monkeypatch, module, call=None, row=None):
    """Make ``module.fidelity`` NaN: at every row of every call, or at ``row``
    of its ``call``-th call (0-based)."""
    real, calls = module.fidelity, []

    def patched(a, b):
        out = np.array(real(a, b), dtype=float)
        if call is None:
            out[...] = NAN
        elif len(calls) == call:
            out[row] = NAN
        calls.append(None)
        return out
    monkeypatch.setattr(module, "fidelity", patched)


def test_verify_synthesis_fails_on_nan_infidelities(monkeypatch):
    _fidelity_nan_at(monkeypatch, synthesis)
    report = verify_synthesis(preset("cnot"), trials=6, seed=1)
    assert math.isnan(report.max_infidelity)
    assert not report.passed and report.worst_trial == 0
    doc = report.as_dict()
    assert doc["max_infidelity"] is None and doc["passed"] is False
    assert '"max_infidelity": null' in dumps(doc)


def test_verify_synthesis_sees_a_nan_in_the_minus_branch_of_one_trial(monkeypatch):
    _fidelity_nan_at(monkeypatch, synthesis, call=1, row=4)  # minus branch, trial 4
    report = verify_synthesis(preset("cz"), trials=9, seed=2)
    assert math.isnan(report.max_infidelity)
    assert not report.passed and report.worst_trial == 4


def test_verify_synthesis_sees_a_nan_bare_minus_residual(monkeypatch):
    real, calls = synthesis.distance_up_to_phase, []

    def patched(u, v):  # block_residuals' fourth distance is bare_minus
        calls.append(None)
        return NAN if len(calls) == 4 else real(u, v)
    monkeypatch.setattr(synthesis, "distance_up_to_phase", patched)
    report = verify_synthesis(preset("cnot"), trials=3, seed=1)
    assert math.isnan(report.bare_correction_residual)
    assert report.max_infidelity < 1e-10 and not report.passed
    assert report.as_dict()["bare_correction_residual"] is None


# --- check_equivalence -------------------------------------------------------

def test_check_equivalence_fails_on_nan_infidelities(monkeypatch):
    _fidelity_nan_at(monkeypatch, lowering)
    circuit = parse_circuit(TWO_CNOTS)
    report = check_equivalence(circuit, lower(circuit), trials=3, seed=4)
    assert math.isnan(report.max_infidelity) and not report.passed
    assert (report.worst_trial, report.worst_assignment) == (0, ("minus", "minus"))
    assert report.as_dict()["max_infidelity"] is None


@pytest.mark.parametrize("cap,call,row", [(1, 10, 0), (2 ** 30, 2, 1)],
                         ids=["leaf_per_chunk", "level_per_chunk"])
def test_check_equivalence_names_one_nan_leaf(monkeypatch, cap, call, row):
    # the walk follows plus first, depth first: with one leaf per chunk, the
    # third of trial 2's four chunks (call 10) is ("minus", "plus"); with
    # whole levels, trial 2's one chunk (call 2) lists it second
    monkeypatch.setattr(programs, "CAP", cap)
    _fidelity_nan_at(monkeypatch, lowering, call=call, row=row)
    circuit = parse_circuit(TWO_CNOTS)
    report = check_equivalence(circuit, lower(circuit), trials=4, seed=4)
    assert math.isnan(report.max_infidelity) and not report.passed
    assert (report.worst_trial, report.worst_assignment) == (2, ("minus", "plus"))


def _alike_leaves_program(blocks: int) -> SwitchProgram:
    """One data qubit and ``blocks`` ancillas, each measured at theta 0 and
    discarded: every leaf of the branch tree is the same state."""
    instructions = []
    for i in range(blocks):
        instructions += [AllocAncilla(f"a{i}"), MeasureAncilla(0.0, f"a{i}", f"m{i}"),
                         Discard(f"a{i}")]
    return SwitchProgram(num_data_qubits=1, instructions=tuple(instructions))


@pytest.mark.parametrize("cap", [1, 2 ** 30])
def test_a_tie_goes_to_the_smallest_assignment(monkeypatch, cap):
    monkeypatch.setattr(programs, "CAP", cap)
    circuit, program = parse_circuit("qubits 1\n"), _alike_leaves_program(3)
    labels = ("m0", "m1", "m2")
    psi = random_state(np.random.default_rng(5), 1)
    scores = {1.0 - fidelity(simulate_circuit(circuit, psi), simulate_program(
        program, psi, forced=dict(zip(labels, assignment))).final_state)
        for assignment in product(("minus", "plus"), repeat=3)}
    assert len(scores) == 1  # every leaf scores exactly alike
    report = check_equivalence(circuit, program, trials=3, seed=5)
    assert report.worst_assignment == ("minus", "minus", "minus")  # row 0


# --- property suites ---------------------------------------------------------

def _nan_at_trials(monkeypatch, module, name, trials):
    """Make ``module.<name>`` NaN on the calls (one per trial) in ``trials``."""
    real, calls = getattr(module, name), []

    def patched(*args):
        calls.append(None)
        return NAN if trials is None or len(calls) - 1 in trials else real(*args)
    monkeypatch.setattr(module, name, patched)


@pytest.mark.parametrize("nan_trials,worst_trial", [(None, 0), ({3}, 3), ({5, 3}, 3)])
def test_switch_suite_fails_on_a_nan_residual(monkeypatch, nan_trials, worst_trial):
    _nan_at_trials(monkeypatch, suites, "unitarity_residual", nan_trials)
    results = {r.name: r for r in run_suite("switch", trials=8, seed=11)}
    result = results.pop("joint_unitarity")
    assert math.isnan(result.max_residual) and not result.passed
    assert result.worst_trial == worst_trial
    assert result.as_dict()["max_residual"] is None
    assert all(r.passed for r in results.values())


def test_channels_suite_fails_on_nan_residuals(monkeypatch):
    monkeypatch.setattr(suites, "frobenius", lambda m: np.full(m.shape[:-2], NAN))
    results = {r.name: r for r in run_suite("channels", trials=9, seed=3)}
    for name in ("four_term_vs_kraus_form", "output_hermitian", "definite_order_reduces"):
        assert math.isnan(results[name].max_residual) and not results[name].passed
        assert results[name].worst_trial == 0
    assert results["trace_preserving"].passed and results["choi_positive"].passed


def test_channels_suite_names_one_nan_trial(monkeypatch):
    # the odd trials (Kraus ranks 2 and 1) run as one stack: row 3 is trial 7
    four_term = suites._four_term_map

    def patched(ops_a, ops_b, rho, omega):
        out = four_term(ops_a, ops_b, rho, omega)
        if out.ndim == 3 and len(ops_a) == 2:
            out[3, 0, 0] = NAN
        return out
    monkeypatch.setattr(suites, "_four_term_map", patched)
    results = {r.name: r for r in run_suite("channels", trials=20, seed=3)}
    for name in ("four_term_vs_kraus_form", "trace_preserving", "output_hermitian"):
        assert math.isnan(results[name].max_residual), name
        assert not results[name].passed and results[name].worst_trial == 7


# --- through the CLI ---------------------------------------------------------

def _cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_synth_exits_1_on_a_nan_infidelity(monkeypatch, capsys, fmt):
    _fidelity_nan_at(monkeypatch, synthesis)
    code, out, _ = _cli(capsys, "synth", "--gate", "cnot", "--trials", "4",
                        "--format", fmt)
    assert code == 1
    if fmt == "json":
        doc = json.loads(out)
        assert doc["max_infidelity"] is None and doc["passed"] is False
    else:
        assert "max_infidelity: nan\n" in out and out.endswith("passed: false\n")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_exits_1_on_a_nan_residual(monkeypatch, capsys, fmt):
    _nan_at_trials(monkeypatch, suites, "unitarity_residual", {2})
    code, out, err = _cli(capsys, "verify", "--suite", "switch", "--trials", "4",
                          "--format", fmt)
    assert code == 1
    assert err == "failing properties: switch/joint_unitarity\n"
    if fmt == "json":
        doc = json.loads(out)
        prop, = (p for p in doc["properties"] if p["name"] == "joint_unitarity")
        assert prop["max_residual"] is None and prop["passed"] is False
        assert doc["passed"] is False
    else:
        assert "[FAIL] switch/joint_unitarity: max_residual=nan " in out
        assert out.endswith("passed: false\n")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_simulate_check_against_exits_1_on_a_nan_infidelity(
        monkeypatch, capsys, tmp_path, fmt):
    circuit = tmp_path / "c.circ"
    circuit.write_text(TWO_CNOTS)
    program = tmp_path / "p.json"
    program.write_text(serialize_program(lower(parse_circuit(TWO_CNOTS))))
    _fidelity_nan_at(monkeypatch, lowering, call=1, row=0)
    code, out, _ = _cli(capsys, "simulate", str(program), "--check-against",
                        str(circuit), "--trials", "3", "--format", fmt)
    assert code == 1
    if fmt == "json":
        doc = json.loads(out)
        assert doc["equivalence"]["max_infidelity"] is None
        assert doc["equivalence"]["passed"] is False and doc["passed"] is False
    else:
        assert "max_infidelity: nan over 3 trials x 4 branch assignments\n" in out
        assert out.endswith("passed: false\n")
