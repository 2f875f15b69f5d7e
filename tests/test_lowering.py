import hashlib
import math
import re
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from switchsynth.circuits import (
    CONTROLLED_GATES,
    GATES,
    Gate,
    parse_circuit,
    simulate_circuit,
)
from switchsynth.cli import main
from switchsynth import lowering, programs
from switchsynth.linalg import MAX_QUBITS, X, basis_state, fidelity
from switchsynth.lowering import MAX_EXHAUSTIVE_ASSIGNMENTS, check_equivalence, lower
from switchsynth.programs import (
    AllocAncilla,
    _BoundProgram,
    _Tree,
    ApplyLocal,
    CondApply,
    Discard,
    MeasureAncilla,
    SwitchApply,
    SwitchProgram,
    matrix_id,
    parse_program,
    serialize_program,
    simulate_program,
    validate_program,
)
from switchsynth.sampling import random_state
from switchsynth.switch import project_branches
from switchsynth.synthesis import synthesize

import oracles

BELL_TEXT = "qubits 2\nh 0\ncnot 0 1\n"
ALL_GATES_BODY = ("h 0\nx 1\ny 2\nz 0\n"
                  "rx 0 theta=0.3\nry 1 theta=-1.2\nrz 2 theta=2.5\n"
                  "rn 0 theta=0.7 nx=0.0 ny=0.6 nz=0.8\n"
                  "cnot 0 1\ncz 1 2\n"
                  "cu 2 0 alpha=0.4 theta=1.1 nx=0.6 ny=0.0 nz=0.8\n"
                  "barenco 0 2 alpha=0.2 phi=0.9 theta=-0.5\n")


def test_lower_bell_structure():
    program = lower(parse_circuit(BELL_TEXT))
    validate_program(program)
    kinds = [type(inst) for inst in program.instructions]
    assert kinds == [ApplyLocal, AllocAncilla, ApplyLocal, SwitchApply,
                     MeasureAncilla, CondApply, CondApply, Discard]
    alloc = program.instructions[1]
    measure = program.instructions[4]
    plus_cond, minus_cond = program.instructions[5:7]
    assert alloc.ancilla == "a0" and alloc.state == "plus"
    assert measure.theta == pytest.approx(np.pi / 2)
    assert measure.result == "m0"
    assert (plus_cond.result, plus_cond.outcome) == ("m0", "plus")
    assert (minus_cond.result, minus_cond.outcome) == ("m0", "minus")
    switch = program.instructions[3]
    # pre gate and switched gate A coincide, so they share a table entry
    assert program.instructions[2].matrix == switch.gate_a
    assert switch.gate_a != switch.gate_b


def test_lower_shares_matrices_between_identical_gates():
    program = lower(parse_circuit("qubits 2\ncnot 0 1\ncnot 0 1\n"))
    assert len(program.matrices) == 4  # pre = A, B, and the two corrections
    labels = [inst.ancilla for inst in program.instructions
              if isinstance(inst, AllocAncilla)]
    assert labels == ["a0", "a1"]


def test_lower_single_qubit_gates_pass_through():
    program = lower(parse_circuit("qubits 1\nh 0\nrx 0 theta=0.5\n"))
    assert all(isinstance(inst, ApplyLocal) for inst in program.instructions)
    assert len(program.matrices) == 2


def test_lowered_program_serializes_as_without_the_id_memo(monkeypatch):
    # every gate twice, so the second of each is answered by the memo
    circuit = parse_circuit("qubits 3\n" + ALL_GATES_BODY * 2)
    text = serialize_program(lower(circuit))

    def add_matrix(self, m):  # content addressing alone, hashing every call
        m = np.asarray(m, dtype=complex)
        key = matrix_id(m)
        self.matrices.setdefault(key, m)
        return key

    monkeypatch.setattr(SwitchProgram, "add_matrix", add_matrix)
    assert serialize_program(lower(circuit)) == text


def test_all_gates_twice_program_bytes_are_unchanged():
    # SHA-256 recorded when matrices were formatted at serialization
    text = serialize_program(lower(parse_circuit("qubits 3\n" + ALL_GATES_BODY * 2)))
    assert len(text) == 13636
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6e607ae246f12c96057391113e7eec90894e8c7c1ab2d93ecdc5b2b5a14dfbe1")


def test_lower_synthesizes_each_distinct_spec_once(monkeypatch):
    circuit = parse_circuit(
        "qubits 3\n" + ALL_GATES_BODY * 2 + "cnot 1 0\ncz 2 0\ncnot 0 2\n"
        "cu 0 1 alpha=0.4 theta=1.1 nx=0.6 ny=0.0 nz=0.8\n"
        "cu 0 1 alpha=0.5 theta=1.1 nx=0.6 ny=0.0 nz=0.8\n")
    text = serialize_program(lower(circuit))
    specs = []

    def counting(spec):
        specs.append(spec)
        return synthesize(spec)

    monkeypatch.setattr(lowering, "synthesize", counting)
    assert serialize_program(lower(circuit)) == text
    # cnot, cz, two cu and one barenco, out of 12 controlled gates
    assert len(specs) == len(set(specs)) == 5


def test_max_qubit_circuit_with_a_controlled_gate_lowers_and_serializes():
    # the switch block's ancilla is held beside every data qubit; the
    # program is only validated here, never simulated
    text = serialize_program(lower(parse_circuit(f"qubits {MAX_QUBITS}\ncnot 0 1\n")))
    assert serialize_program(parse_program(text)) == text


def test_lowered_bell_gives_bell_state_on_both_branches():
    program = lower(parse_circuit(BELL_TEXT))
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = np.sqrt(0.5)
    for branch in ("plus", "minus"):
        trace = simulate_program(program, basis_state(2, 0), forced=branch)
        assert 1.0 - fidelity(trace.final_state, bell) < 1e-12
        label, outcome, probability = trace.measurement_record[0]
        assert (label, outcome) == ("m0", branch)
        assert probability == pytest.approx(0.5, abs=1e-12)


def test_lowered_program_serializes_and_reloads():
    program = lower(parse_circuit(BELL_TEXT))
    text = serialize_program(program)
    reloaded = parse_program(text)
    trace_a = simulate_program(program, basis_state(2, 0), forced="plus")
    trace_b = simulate_program(reloaded, basis_state(2, 0), forced="plus")
    assert_allclose(trace_a.final_state, trace_b.final_state, atol=0)
    assert serialize_program(reloaded) == text


def test_check_equivalence_bell():
    circuit = parse_circuit(BELL_TEXT)
    report = check_equivalence(circuit, lower(circuit), trials=20, seed=1)
    assert report.passed
    assert report.max_infidelity < 1e-10
    assert report.trials == 20
    assert report.branch_assignments == 2
    doc = report.as_dict()
    assert doc["passed"] is True
    assert doc["branch_assignments"] == 2


def test_check_equivalence_enumerates_assignments():
    text = ("qubits 2\n"
            "cnot 0 1\n"
            "cu 1 0 alpha=0.4 theta=0.9 nx=0.0 ny=0.0 nz=1.0\n"
            "barenco 0 1 alpha=1.2 phi=0.3 theta=2.0\n")
    circuit = parse_circuit(text)
    report = check_equivalence(circuit, lower(circuit), trials=5, seed=2)
    assert report.branch_assignments == 8
    assert report.passed
    assert report.max_infidelity < 1e-10


def test_check_equivalence_samples_when_too_many_branches():
    lines = ["qubits 2"] + ["cz 0 1"] * 11
    circuit = parse_circuit("\n".join(lines) + "\n")
    report = check_equivalence(circuit, lower(circuit), trials=1, seed=3)
    assert report.branch_assignments == 1024
    assert report.passed


def test_check_equivalence_detects_mismatch():
    circuit = parse_circuit(BELL_TEXT)
    other = parse_circuit("qubits 2\nh 0\ncz 0 1\n")
    report = check_equivalence(other, lower(circuit), trials=10, seed=4)
    assert not report.passed
    assert report.max_infidelity > 1e-3


def test_check_equivalence_rejects_size_mismatch():
    circuit = parse_circuit(BELL_TEXT)
    program = lower(parse_circuit("qubits 3\nh 0\n"))
    with pytest.raises(ValueError):
        check_equivalence(circuit, program)


def test_lowered_mixed_circuit_matches_reference():
    text = ("qubits 3\n"
            "h 0\n"
            "cu 0 2 alpha=-0.7 theta=0.4 nx=0.6 ny=0.0 nz=0.8\n"
            "z 1\n"
            "cnot 2 1\n"
            "barenco 1 0 alpha=0.9 phi=1.4 theta=0.2\n")
    circuit = parse_circuit(text)
    report = check_equivalence(circuit, lower(circuit), trials=10, seed=5)
    assert report.passed
    assert report.max_infidelity < 1e-10


THREE_GATE_TEXT = ("qubits 2\n"
                   "cnot 0 1\n"
                   "cu 1 0 alpha=0.4 theta=0.9 nx=0.0 ny=0.0 nz=1.0\n"
                   "barenco 0 1 alpha=1.2 phi=0.3 theta=2.0\n")
FOUR_GATE_TEXT = THREE_GATE_TEXT + "cz 1 0\n"
CZ11_TEXT = "qubits 2\n" + "cz 0 1\n" * 11


def interleaved(program):
    """The program with every ancilla allocated first and discarded last, so
    each measurement removes an ancilla that has live ones behind it."""
    allocs = [i for i in program.instructions if isinstance(i, AllocAncilla)]
    discards = [i for i in program.instructions if isinstance(i, Discard)]
    body = [i for i in program.instructions
            if not isinstance(i, (AllocAncilla, Discard))]
    return replace(program, instructions=tuple(allocs + body + discards))


def replayed_max_infidelity(circuit, program, trials, seed):
    """check_equivalence by one forced simulate_program per assignment."""
    labels = [inst.result for inst in program.instructions
              if isinstance(inst, MeasureAncilla)]
    rng = np.random.default_rng(seed)
    if 2 ** len(labels) <= MAX_EXHAUSTIVE_ASSIGNMENTS:
        assignments = list(product(("plus", "minus"), repeat=len(labels)))
    else:
        assignments = [tuple(rng.choice(("plus", "minus"), size=len(labels)))
                       for _ in range(MAX_EXHAUSTIVE_ASSIGNMENTS)]
    worst = 0.0
    for _ in range(trials):
        psi = random_state(rng, circuit.num_qubits)
        expected = simulate_circuit(circuit, psi)
        for assignment in assignments:
            trace = simulate_program(program, psi,
                                     forced=dict(zip(labels, assignment)))
            worst = max(worst, 1.0 - fidelity(expected, trace.final_state))
    return worst


def corrupt_last_minus_correction(program):
    """Swap X on the target in for the minus-branch correction of the last
    controlled gate."""
    insts = list(program.instructions)
    index = max(i for i, inst in enumerate(insts)
                if isinstance(inst, CondApply) and inst.outcome == "minus")
    program = replace(program, matrices=dict(program.matrices))
    insts[index] = replace(insts[index], matrix=program.add_matrix(X),
                           qubits=insts[index].qubits[1:])
    return replace(program, instructions=tuple(insts))


def test_check_equivalence_rejects_zero_trials():
    circuit = parse_circuit(BELL_TEXT)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        check_equivalence(circuit, lower(circuit), trials=0)


@pytest.mark.parametrize("kwargs,message", [
    ({"trials": True}, "trials must be an integer, got True"),
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"seed": False}, "seed must be a non-negative integer, got False"),
])
def test_check_equivalence_validates_trials_and_seed(kwargs, message):
    circuit = parse_circuit(BELL_TEXT)
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_equivalence(circuit, lower(circuit), **kwargs)
    doc = check_equivalence(circuit, lower(circuit), trials=np.int64(2),
                            seed=np.int32(5)).as_dict()
    assert (type(doc["trials"]), type(doc["seed"])) == (int, int)


@pytest.mark.parametrize("text,make_program,trials,assignments", [
    (THREE_GATE_TEXT, lambda c: interleaved(lower(c)), 3, 8),
    (CZ11_TEXT, lower, 1, 1024),
], ids=["interleaved_exhaustive", "sampled_k11"])
def test_check_equivalence_is_bit_identical_to_forced_replay(
        text, make_program, trials, assignments):
    circuit = parse_circuit(text)
    program = make_program(circuit)
    validate_program(program)
    report = check_equivalence(circuit, program, trials=trials, seed=6)
    assert report.branch_assignments == assignments
    assert report.max_infidelity == replayed_max_infidelity(
        circuit, program, trials, seed=6)


@pytest.mark.parametrize("text", [FOUR_GATE_TEXT, CZ11_TEXT],
                         ids=["four_gates", "sampled_k11"])
def test_check_equivalence_visits_the_last_minus_branch(text):
    circuit = parse_circuit(text)
    program = corrupt_last_minus_correction(lower(circuit))
    validate_program(program)
    report = check_equivalence(circuit, program, trials=1, seed=7)
    assert not report.passed
    assert report.max_infidelity > 1e-3


def test_sampled_k11_report_is_unchanged():
    circuit = parse_circuit("qubits 2\n" + THREE_GATE_TEXT.split("\n", 1)[1] * 3
                            + "cz 1 0\ncnot 1 0\n")
    report = check_equivalence(circuit, lower(circuit), trials=2, seed=12)
    assert report.as_dict() == {
        "max_infidelity": 1.1102230246251565e-15, "trials": 2,
        "branch_assignments": 1024, "seed": 12, "tolerance": 1e-10,
        "passed": True}


@pytest.mark.parametrize("k", [11, 12, 37, 50, 97, 150])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_sampled_table_is_the_looped_draw(k, seed):
    rng, looped_rng, string_rng = (np.random.default_rng(seed) for _ in range(3))
    tree = _Tree(k, rng)
    table = oracles.looped_sampled_table(looped_rng, k, MAX_EXHAUSTIVE_ASSIGNMENTS)
    # the looped draw is also one string draw of the whole table
    strings = string_rng.choice(("plus", "minus"), size=(MAX_EXHAUSTIVE_ASSIGNMENTS, k))
    assert np.array_equal(strings == "plus", table)
    assert np.array_equal(tree.table, sorted(map(tuple, table)))  # minus (False) first
    assert rng.random() == looped_rng.random() == string_rng.random()


def test_simulate_deep_program_without_recursion():
    circuit = parse_circuit("qubits 2\n" + "cz 0 1\n" * 1200)
    psi = random_state(np.random.default_rng(8), 2)
    trace = simulate_program(lower(circuit), psi, seed=8)
    assert len(trace.measurement_record) == 1200
    assert 1.0 - fidelity(simulate_circuit(circuit, psi),
                          trace.final_state) < 1e-10


def test_simulate_rejects_a_non_normalized_input():
    program = lower(parse_circuit("qubits 2\ncnot 0 1\n"))
    with pytest.raises(ValueError, match="not normalized"):
        simulate_program(program, 2 * basis_state(2, 0), seed=0)


@pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-9, math.nan])
def test_simulate_without_measurements_rejects_a_non_normalized_input(scale):
    program = lower(parse_circuit("qubits 2\nh 0\nx 1\n"))
    with pytest.raises(programs.ProgramError,
                       match="input state is not normalized: squared norm"):
        simulate_program(program, scale * basis_state(2, 0), seed=0)
    with pytest.raises(programs.ProgramError, match="input state is not normalized"):
        next(_BoundProgram(program).walk(scale * basis_state(2, 0), _Tree(0, None)))


def test_every_multi_qubit_gate_lowers_to_a_switch_block():
    assert [name for name, gate in GATES.items() if gate.arity >= 2] == \
        [name for name in GATES if name in CONTROLLED_GATES]


def test_lower_refuses_a_multi_qubit_gate_without_a_spec(monkeypatch, tmp_path,
                                                          capsys):
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    monkeypatch.setitem(GATES, "swap", Gate(2, (), lambda p: swap.copy()))
    text = "qubits 2\nh 0\nswap 0 1\n"
    with pytest.raises(ValueError, match="swap acts on 2 qubits but has no "
                                         "controlled-gate spec"):
        lower(parse_circuit(text))
    circ = tmp_path / "swap.circ"
    circ.write_text(text)
    assert main(["lower", str(circ)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "swap acts on 2 qubits" in captured.err


@pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
def test_check_equivalence_rejects_bad_tolerances(tolerance):
    circuit = parse_circuit(BELL_TEXT)
    with pytest.raises(ValueError, match="tolerance must be finite and at least 0"):
        check_equivalence(circuit, lower(circuit), trials=1, tolerance=tolerance)


def deferred(program):
    """The program with every cond_apply moved to the end, so a correction
    reads an outcome recorded several measurements before."""
    conds = [i for i in program.instructions if isinstance(i, CondApply)]
    rest = [i for i in program.instructions if not isinstance(i, CondApply)]
    return replace(program, instructions=tuple(rest + conds))


def exhaustive_leaves(program, psi):
    """(assignment, final state) of every leaf of the stacked walk."""
    bound = _BoundProgram(program)
    tree = _Tree(len(bound.labels), None)
    for states, (lo, _) in bound.walk(psi, tree):
        for state, row in zip(states, lo):
            yield dict(zip(bound.labels, tree.assignment(row))), state


@pytest.mark.parametrize("cap", [1, 64, 2 ** 30])
@pytest.mark.parametrize("text,make_program", [
    (THREE_GATE_TEXT, lambda c: interleaved(lower(c))),
    (FOUR_GATE_TEXT, lower),
    (FOUR_GATE_TEXT, lambda c: corrupt_last_minus_correction(lower(c))),
    ("qubits 3\nh 0\ncnot 0 2\ncz 2 1\nbarenco 1 0 alpha=0.2 phi=0.9 theta=-0.5\n"
     "cu 2 0 alpha=0.4 theta=1.1 nx=0.6 ny=0.0 nz=0.8\n",
     lambda c: interleaved(lower(c))),
    (FOUR_GATE_TEXT, lambda c: deferred(lower(c))),
], ids=["interleaved", "four_gates", "four_gates_corrupt", "interleaved_3q",
        "deferred_corrections"])
def test_every_leaf_of_the_walk_is_the_instruction_replay_bitwise(
        monkeypatch, cap, text, make_program):
    monkeypatch.setattr(programs, "CAP", cap)
    circuit = parse_circuit(text)
    program = make_program(circuit)
    labels = [inst.result for inst in program.instructions
              if isinstance(inst, MeasureAncilla)]
    rng = np.random.default_rng(13)
    for _ in range(2):
        psi = random_state(rng, circuit.num_qubits)
        seen = set()
        for assignment, state in exhaustive_leaves(program, psi):
            replayed, record = oracles.replay_program(program, psi, assignment)
            assert state.tobytes() == replayed.tobytes()
            trace = simulate_program(program, psi, forced=assignment)
            assert trace.final_state.tobytes() == replayed.tobytes()
            assert trace.measurement_record == record
            seen.add(tuple(assignment[label] for label in labels))
        assert seen == set(product(("plus", "minus"), repeat=len(labels)))


@pytest.mark.parametrize("text,make_program,trials", [
    (THREE_GATE_TEXT, lambda c: interleaved(lower(c)), 3),
    (FOUR_GATE_TEXT, lower, 2),
    (CZ11_TEXT, lower, 1),
], ids=["interleaved", "four_gates", "sampled_k11"])
def test_check_equivalence_does_not_depend_on_the_chunk_size(
        monkeypatch, text, make_program, trials):
    circuit = parse_circuit(text)
    program = make_program(circuit)
    reports = []
    for cap in (1, 2 ** 30):  # one row per chunk (depth first); whole levels
        monkeypatch.setattr(programs, "CAP", cap)
        reports.append(check_equivalence(circuit, program, trials=trials, seed=9))
    assert reports[0].as_dict() == reports[1].as_dict()
    assert reports[0] == reports[1]  # the worst case too


@pytest.mark.parametrize("size,chunks", [(8, [8]), (7, [7, 1]), (4, [4, 4]), (3, [3, 3, 2])],
                         ids=["last_level_fills", "last_level_one_over",
                              "mid_level_fills", "mid_level_one_over"])
def test_a_level_of_size_or_size_plus_one_rows_is_cut_by_the_one_chunk_rule(
        monkeypatch, size, chunks):
    # three blocks on two data qubits: measured levels of 2, 4 and 8 rows of
    # 4 amplitudes; CAP = 4 * size cuts them into chunks of at most size rows
    circuit = parse_circuit(THREE_GATE_TEXT)
    program = lower(circuit)
    psi = random_state(np.random.default_rng(21), 2)

    def run(cap):  # chunk lengths, each leaf's bytes by row, the report
        monkeypatch.setattr(programs, "CAP", cap)
        lengths, leaves = [], {}
        for states, (lo, _) in _BoundProgram(program).walk(psi, _Tree(3, None)):
            lengths.append(len(states))
            leaves.update(zip(lo.tolist(), (state.tobytes() for state in states)))
        report = check_equivalence(circuit, program, trials=2, seed=8)
        return lengths, leaves, report.as_dict(), repr(report)
    cut, whole = run(4 * size), run(2 ** 30)
    assert (cut[0], whole[0]) == (chunks, [8])
    assert cut[1:] == whole[1:]  # every leaf and the report, bit for bit


def test_the_walk_projects_each_measured_stack_once(monkeypatch):
    rows = []

    def counting(states, functionals):
        rows.append(len(states))
        return project_branches(states, functionals)
    monkeypatch.setattr(programs, "project_branches", counting)
    monkeypatch.setattr(programs, "CAP", 2 ** 30)  # one chunk per level
    circuit = parse_circuit(FOUR_GATE_TEXT)
    program = lower(circuit)
    simulate_program(program, basis_state(2, 0), forced="minus")
    assert rows == [1] * 4
    rows.clear()
    check_equivalence(circuit, program, trials=3, seed=2)
    assert rows == [1, 2, 4, 8] * 3


@pytest.mark.parametrize("make_program", [
    lower, lambda c: corrupt_last_minus_correction(lower(c)),
], ids=["passing", "corrupt_last_minus"])
def test_equivalence_report_names_its_worst_case(make_program):
    circuit = parse_circuit(FOUR_GATE_TEXT)
    program = make_program(circuit)
    labels = [inst.result for inst in program.instructions
              if isinstance(inst, MeasureAncilla)]
    report = check_equivalence(circuit, program, trials=4, seed=10)
    assert set(report.as_dict()) == {"max_infidelity", "trials",
                                     "branch_assignments", "seed",
                                     "tolerance", "passed"}
    # the first trial and, within it, the first assignment in sorted order
    # ("minus" before "plus") that reach the largest 1 - fidelity
    rng = np.random.default_rng(10)
    psis, scores = [], []
    for _ in range(4):
        psi = random_state(rng, circuit.num_qubits)
        expected = simulate_circuit(circuit, psi)
        psis.append(psi)
        scores.append([1.0 - fidelity(expected, oracles.replay_program(
                           program, psi, dict(zip(labels, assignment)))[0])
                       for assignment in product(("minus", "plus"),
                                                 repeat=len(labels))])
    top = max(max(trial) for trial in scores)
    trial = next(t for t, row in enumerate(scores) if max(row) == top)
    index = scores[trial].index(top)
    assert report.max_infidelity == max(0.0, top)
    assert report.worst_trial == trial
    assert report.worst_assignment == list(product(("minus", "plus"),
                                                   repeat=len(labels)))[index]
    # one forced run on that trial's input reproduces the maximum bitwise
    trace = simulate_program(program, psis[report.worst_trial],
                             forced=dict(zip(labels, report.worst_assignment)))
    expected = simulate_circuit(circuit, psis[report.worst_trial])
    assert 1.0 - fidelity(expected, trace.final_state) == report.max_infidelity


@pytest.mark.parametrize("count", ["2", True])
def test_entry_points_refuse_a_bad_qubit_count_with_one_message(count):
    # check_equivalence binds (validates) the program before it compares
    # qubit counts, as serialize_program and simulate_program validate first
    circuit = parse_circuit(BELL_TEXT)
    program = replace(lower(circuit), num_data_qubits=count)
    message = f"^num_data_qubits must be a non-negative integer, got {count!r}$"
    for run in (lambda: serialize_program(program),
                lambda: simulate_program(program, basis_state(2, 0)),
                lambda: check_equivalence(circuit, program, trials=1)):
        with pytest.raises(programs.ProgramError, match=message):
            run()


@pytest.mark.parametrize("tolerance", [10 ** 400, -(10 ** 400)], ids=["huge", "huge_negative"])
def test_check_equivalence_refuses_an_int_tolerance_beyond_float_range(tolerance):
    circuit = parse_circuit(BELL_TEXT)
    with pytest.raises(ValueError, match="^tolerance must be finite and at least 0, got "):
        check_equivalence(circuit, lower(circuit), trials=1, tolerance=tolerance)


@pytest.mark.parametrize("tolerance", [True, False, "1e-9", None])
def test_check_equivalence_refuses_a_tolerance_that_is_not_a_real_number(tolerance):
    circuit = parse_circuit(BELL_TEXT)
    with pytest.raises(ValueError, match=f"^tolerance must be a real number, got "
                                         f"{re.escape(repr(tolerance))}$"):
        check_equivalence(circuit, lower(circuit), trials=1, tolerance=tolerance)


@pytest.mark.parametrize("tolerance", [np.float64(1e-9), 0])
def test_check_equivalence_accepts_numpy_and_int_tolerances(tolerance):
    circuit = parse_circuit(BELL_TEXT)
    report = check_equivalence(circuit, lower(circuit), trials=1, tolerance=tolerance)
    assert report.tolerance == tolerance


@pytest.mark.parametrize("line", [
    "barenco 0 1 alpha=0.3 phi=0.7 theta=1e12",
    "barenco 0 1 alpha=1e12 phi=0.7 theta=0.3",
    "cu 0 1 alpha=0.3 theta=-1e12 nx=0 ny=0.6 nz=0.8",
])
def test_lower_refuses_an_angle_past_the_exact_fold(tmp_path, capsys, line):
    # the fold would drift far enough that check_equivalence fails the program
    with pytest.raises(ValueError, match=r"must be at most 2\*\*20, got 1000000000000.0$"):
        lower(parse_circuit(f"qubits 2\n{line}\n"))
    circ = tmp_path / "far.circ"
    circ.write_text(f"qubits 2\n{line}\n")
    assert main(["lower", str(circ)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: |") and "2**20" in captured.err


@pytest.mark.parametrize("line", [
    f"barenco 0 1 alpha={a} phi=0.7 theta={t}" for a, t in product((0.3, 2.0 ** 20, -2.0 ** 20),
                                                                    (2.0 ** 20, -2.0 ** 20))
] + [f"cu 0 1 alpha={a} theta={t} nx=0 ny=0.6 nz=0.8"
     for a, t in product((0.3, -2.0 ** 20), (2.0 ** 20, -2.0 ** 20))])
def test_angles_at_the_fold_bound_check_equivalent(line):
    circuit = parse_circuit(f"qubits 2\n{line}\n")
    report = check_equivalence(circuit, lower(circuit), trials=8, seed=3)
    assert report.passed and report.max_infidelity <= 1e-15, report.max_infidelity
