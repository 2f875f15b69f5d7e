import hashlib
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from switchsynth.circuits import CONTROLLED_GATES, GATES, controlled_gate_spec, parse_circuit
from switchsynth.cli import THREAD_VARS, main
from switchsynth.linalg import MAX_QUBITS, MAX_TRIALS

BELL_TEXT = "qubits 2\nh 0\ncnot 0 1\n"
CNOT_TEXT = "qubits 2\ncnot 0 1\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_cnot_json(capsys):
    code, out, _ = run_cli(capsys, "synth", "--gate", "cnot", "--trials", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["target"] == "cnot"
    assert doc["residual_plus"] < 1e-10
    assert doc["residual_minus"] < 1e-10
    assert doc["bare_correction_residual"] < 1e-10
    assert doc["max_infidelity"] < 1e-10
    assert doc["spec"]["axis"] == [1.0, 0.0, 0.0]
    assert doc["spec"]["perp"] == [0.0, 0.0, 1.0]
    phase = doc["plan"]["phase"]
    assert phase[0] == pytest.approx(np.cos(-np.pi / 4))
    assert phase[1] == pytest.approx(np.sin(-np.pi / 4))
    assert len(doc["plan"]["pre"]) == 16
    assert len(doc["plan"]["factors"]["pre_control"]) == 4


def test_synth_cu_requires_axis_flags(capsys):
    code, _, err = run_cli(capsys, "synth", "--gate", "cu", "--alpha", "0.5")
    assert code == 2
    assert "--theta" in err and "--nx" in err


@pytest.mark.parametrize("argv,flags", [
    (("--gate", "cnot", "--theta", "5"), "--theta"),
    (("--gate", "cz", "--alpha", "1", "--nz", "0"), "--alpha --nz"),
    (("--gate", "cu", "--alpha", "0.5", "--theta", "0.3", "--nx", "0",
      "--ny", "0", "--nz", "1", "--phi", "3"), "--phi"),
    (("--gate", "barenco", "--alpha", "0.3", "--phi", "1.1", "--theta",
      "-0.7", "--ny", "1"), "--ny"),
], ids=["cnot_theta", "cz_alpha_nz", "cu_phi", "barenco_ny"])
def test_synth_rejects_flags_its_gate_does_not_take(capsys, argv, flags):
    code, out, err = run_cli(capsys, "synth", *argv)
    assert code == 2
    assert out == ""
    assert f"--gate {argv[1]} does not take {flags}" in err


@pytest.mark.parametrize("argv", [("--gate", "cu"), ("--gate", "cnot", "--theta", "1")],
                         ids=["missing_flags", "extra_flag"])
def test_synth_flag_errors_print_synths_usage(capsys, argv):
    code, out, err = run_cli(capsys, "synth", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: switchsynth synth ")


def test_synth_cu_full(capsys):
    code, out, _ = run_cli(capsys, "synth", "--gate", "cu", "--alpha", "0.3",
                           "--theta", "0.8", "--nx", "0.0", "--ny", "0.6",
                           "--nz", "0.8", "--trials", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["spec"]["alpha"] == 0.3


def test_synth_barenco(capsys):
    code, out, _ = run_cli(capsys, "synth", "--gate", "barenco", "--alpha",
                           "1.0", "--phi", "0.5", "--theta", "2.0",
                           "--trials", "10")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_synth_text_format(capsys):
    code, out, _ = run_cli(capsys, "synth", "--gate", "cz", "--trials", "5",
                           "--format", "text")
    assert code == 0
    assert "target: cz" in out
    assert "passed: true" in out
    assert "post_minus:" in out


def test_synth_output_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(capsys, "synth", "--gate", "cnot",
                             "--trials", "10", "--output", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_synth_unreachable_tolerance_exits_1(capsys):
    code, out, _ = run_cli(capsys, "synth", "--gate", "cnot", "--trials", "5",
                           "--tolerance", "1e-300")
    assert code == 1
    assert json.loads(out)["passed"] is False


# each command that runs a check, passing and failing: (argv, passed); the
# failing runs ask for an unreachable tolerance or check another circuit
REPORT_RUNS = [
    (("synth", "--gate", "cnot"), True),
    (("synth", "--gate", "cnot", "--tolerance", "1e-300"), False),
    (("verify", "--suite", "channels"), True),
    (("verify", "--suite", "channels", "--tolerance", "1e-300"), False),
    (("simulate", "{program}", "--check-against", "{circuit}"), True),
    (("simulate", "{program}", "--check-against", "{other}"), False),
]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv,passed", REPORT_RUNS, ids=[
    "synth_pass", "synth_fail", "verify_pass", "verify_fail",
    "simulate_pass", "simulate_fail"])
def test_every_report_states_its_verdict_on_stdout_or_output(
        tmp_path, capsys, fmt, argv, passed):
    paths = {name: str(tmp_path / name) for name in ("program", "circuit", "other")}
    (tmp_path / "circuit").write_text(BELL_TEXT)
    (tmp_path / "other").write_text("qubits 2\nh 0\ncz 0 1\n")
    run_cli(capsys, "lower", paths["circuit"], "--output", paths["program"])
    argv = [arg.format(**paths) for arg in argv] + ["--trials", "2", "--format", fmt]
    code, out, err = run_cli(capsys, *argv)
    assert code == (0 if passed else 1)
    if fmt == "json":
        assert json.loads(out)["passed"] is passed
    else:
        assert out.endswith(f"\npassed: {str(passed).lower()}\n")
        assert out.count("passed:") == 1
    if argv[0] == "verify" and not passed:
        assert err.startswith("failing properties: channels/")
    else:
        assert err == ""
    path = tmp_path / "report"
    assert run_cli(capsys, *argv, "--output", str(path)) == (code, "", err)
    assert path.read_bytes() == out.encode()


def test_json_reports_never_format_their_text(tmp_path, capsys, monkeypatch):
    # the text of a large final state is one formatted number per amplitude
    import switchsynth.cli as cli

    def refuse(values):
        raise AssertionError("text formatted for a JSON report")
    circuit, program = str(tmp_path / "bell.circ"), str(tmp_path / "bell.json")
    (tmp_path / "bell.circ").write_text(BELL_TEXT)
    run_cli(capsys, "lower", circuit, "--output", program)
    monkeypatch.setattr(cli, "_complex_text", refuse)
    for argv in (("synth", "--gate", "cnot"), ("simulate", program, "--check-against", circuit)):
        assert run_cli(capsys, *argv, "--trials", "2")[0] == 0
    with pytest.raises(AssertionError, match="text formatted"):
        run_cli(capsys, "synth", "--gate", "cnot", "--trials", "2", "--format", "text")


def test_synth_rejects_unknown_gate(capsys):
    code, _, err = run_cli(capsys, "synth", "--gate", "toffoli")
    assert code == 2
    assert "invalid choice" in err


def test_verify_switch_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "switch",
                           "--trials", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "switch"
    assert doc["passed"] is True
    assert len(doc["properties"]) == 5
    assert all(p["passed"] for p in doc["properties"])


def test_verify_all_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--trials", "8")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["properties"]) == 21


def test_verify_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "separability",
                           "--trials", "8", "--format", "text")
    assert code == 0
    assert out.count("[pass]") == 4
    assert "passed: true" in out


def test_lower_and_simulate_pipeline(tmp_path, capsys):
    circ = tmp_path / "bell.circ"
    circ.write_text(BELL_TEXT)
    prog = tmp_path / "bell.json"
    code, _, _ = run_cli(capsys, "lower", str(circ), "--output", str(prog))
    assert code == 0
    doc = json.loads(prog.read_text())
    assert doc["num_data_qubits"] == 2

    code, out, _ = run_cli(capsys, "simulate", str(prog), "--check-against",
                           str(circ), "--trials", "10")
    assert code == 0
    result = json.loads(out)
    assert result["passed"] is True
    assert result["equivalence"]["passed"] is True
    assert result["equivalence"]["max_infidelity"] < 1e-10
    assert result["measurements"][0]["label"] == "m0"
    assert result["measurements"][0]["probability"] == pytest.approx(0.5)
    amps = np.array([complex(re, im) for re, im in result["final_state"]])
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = np.sqrt(0.5)
    assert abs(np.vdot(bell, amps)) == pytest.approx(1.0, abs=1e-10)


def test_simulate_basis_input(tmp_path, capsys):
    circ = tmp_path / "cnot.circ"
    circ.write_text(CNOT_TEXT)
    prog = tmp_path / "cnot.json"
    run_cli(capsys, "lower", str(circ), "--output", str(prog))
    code, out, _ = run_cli(capsys, "simulate", str(prog), "--input", "basis:2")
    assert code == 0
    result = json.loads(out)
    amps = np.array([complex(re, im) for re, im in result["final_state"]])
    assert abs(amps[3]) == pytest.approx(1.0, abs=1e-10)


def test_simulate_random_input_is_deterministic(tmp_path, capsys):
    circ = tmp_path / "bell.circ"
    circ.write_text(BELL_TEXT)
    prog = tmp_path / "bell.json"
    run_cli(capsys, "lower", str(circ), "--output", str(prog))
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "simulate", str(prog), "--input",
                               "random", "--seed", "9")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_an_axis_near_z_lowers_checks_and_synthesizes(tmp_path, capsys):
    circ = tmp_path / "near_z.circ"
    circ.write_text("qubits 2\ncu 0 1 alpha=0 theta=1 nx=1e-9 ny=0 nz=1\n")
    prog = tmp_path / "near_z.json"
    assert run_cli(capsys, "lower", str(circ), "--output", str(prog))[0] == 0
    assert run_cli(capsys, "simulate", str(prog), "--check-against", str(circ),
                   "--trials", "2")[0] == 0
    assert run_cli(capsys, "synth", "--gate", "cu", "--alpha", "0", "--theta", "1",
                   "--nx", "1e-9", "--ny", "0", "--nz", "1", "--trials", "2")[0] == 0


def test_simulate_check_against_mismatch_exits_1(tmp_path, capsys):
    circ = tmp_path / "bell.circ"
    circ.write_text(BELL_TEXT)
    other = tmp_path / "other.circ"
    other.write_text("qubits 2\nh 0\ncz 0 1\n")
    prog = tmp_path / "bell.json"
    run_cli(capsys, "lower", str(circ), "--output", str(prog))
    code, out, _ = run_cli(capsys, "simulate", str(prog), "--check-against",
                           str(other), "--trials", "5")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_lower_parse_error_exits_2(tmp_path, capsys):
    circ = tmp_path / "bad.circ"
    circ.write_text("qubits 2\ncnot 0 5\n")
    code, _, err = run_cli(capsys, "lower", str(circ))
    assert code == 2
    assert "error:" in err
    assert "line 2" in err


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "lower", str(tmp_path / "nothing.circ"))
    assert code == 2
    assert "error:" in err


def test_simulate_bad_input_kind_exits_2(tmp_path, capsys):
    circ = tmp_path / "bell.circ"
    circ.write_text(BELL_TEXT)
    prog = tmp_path / "bell.json"
    run_cli(capsys, "lower", str(circ), "--output", str(prog))
    code, _, err = run_cli(capsys, "simulate", str(prog), "--input", "everything")
    assert code == 2
    assert "unknown input kind" in err
    code, _, err = run_cli(capsys, "simulate", str(prog), "--input", "basis:7")
    assert code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "switchsynth", "synth", "--gate", "cz",
         "--trials", "5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


# one valid value per parameter name in the gate table (the axis is unit)
SAMPLE_PARAMS = {"alpha": 0.3, "theta": 0.8, "phi": 0.5,
                 "nx": 0.0, "ny": 0.6, "nz": 0.8}


@pytest.mark.parametrize("gate", CONTROLLED_GATES)
def test_synth_every_controlled_gate_in_the_table(capsys, gate):
    flags = [arg for name in GATES[gate].params
             for arg in (f"--{name}", repr(SAMPLE_PARAMS[name]))]
    code, out, _ = run_cli(capsys, "synth", "--gate", gate, *flags,
                           "--trials", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["target"] == gate
    assert doc["passed"] is True


@pytest.mark.parametrize("command", [
    ["synth", "--gate", "cnot"],
    ["verify", "--suite", "switch"],
    ["simulate", "PROGRAM"],
])
def test_trials_below_one_is_a_usage_error(tmp_path, capsys, command):
    circ = tmp_path / "bell.circ"
    circ.write_text(BELL_TEXT)
    prog = tmp_path / "bell.json"
    run_cli(capsys, "lower", str(circ), "--output", str(prog))
    argv = [str(prog) if arg == "PROGRAM" else arg for arg in command]
    code, out, err = run_cli(capsys, *argv, "--trials", "0")
    assert code == 2
    assert out == ""
    assert "--trials: must be at least 1" in err


def test_simulate_malformed_program_exits_2_without_traceback(tmp_path):
    prog = tmp_path / "bad.json"
    prog.write_text('{"num_data_qubits": 1, '
                    '"matrices": {"m0": [[0, 0], [1, 0], [1, 0], [0, 0]]}, '
                    '"instructions": [{"op": "apply_local", "matrix": "m0", '
                    '"qubits": [0.5]}]}')
    proc = subprocess.run(
        [sys.executable, "-m", "switchsynth", "simulate", str(prog)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_simulate_non_unitary_program_exits_2_without_traceback(tmp_path):
    # diag(2, 2) would otherwise return a state of norm 2 and pass
    prog = tmp_path / "scaled.json"
    prog.write_text('{"num_data_qubits": 1, '
                    '"matrices": {"m0": [[2, 0], [0, 0], [0, 0], [2, 0]]}, '
                    '"instructions": [{"op": "apply_local", "matrix": "m0", '
                    '"qubits": [0]}]}')
    proc = subprocess.run(
        [sys.executable, "-m", "switchsynth", "simulate", str(prog)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: matrix 'm0' is not unitary")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("count", ["-1", "2.7", "true", str(MAX_QUBITS + 1)])
def test_simulate_bad_qubit_count_exits_2_without_traceback(tmp_path, count):
    # -1 used to reach basis_state and exit 1 through a TypeError traceback
    prog = tmp_path / "bad.json"
    prog.write_text(f'{{"num_data_qubits": {count}, "matrices": {{}}, '
                    f'"instructions": []}}')
    proc = subprocess.run(
        [sys.executable, "-m", "switchsynth", "simulate", str(prog)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: num_data_qubits")
    assert "Traceback" not in proc.stderr


def test_lower_above_the_qubit_cap_exits_2(tmp_path, capsys):
    circ = tmp_path / "wide.circ"
    circ.write_text(f"qubits {MAX_QUBITS + 1}\nh 0\n")
    code, out, err = run_cli(capsys, "lower", str(circ))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: qubit count {MAX_QUBITS + 1} exceeds")


def test_lower_oversized_integer_exits_2_without_traceback(tmp_path):
    circ = tmp_path / "huge.circ"
    circ.write_text("qubits 2\nh " + "9" * 5000 + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "switchsynth", "lower", str(circ)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: qubit 999")
    assert proc.stderr.endswith("out of range, line 2, column 3\n")
    assert "Traceback" not in proc.stderr


def test_simulate_too_many_held_qubits_exits_2_without_traceback(tmp_path):
    # one data qubit and 40 ancillas allocated before any is measured
    labels = [f"a{i}" for i in range(40)]
    prog = tmp_path / "wide.json"
    prog.write_text(json.dumps({"num_data_qubits": 1, "matrices": {}, "instructions": [
        *({"op": "alloc_ancilla", "ancilla": a} for a in labels),
        *({"op": "measure_ancilla", "theta": 0.0, "ancilla": a, "result": "r" + a}
          for a in labels),
        *({"op": "discard", "ancilla": a} for a in labels)]}))
    proc = subprocess.run(
        [sys.executable, "-m", "switchsynth", "simulate", str(prog)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: instruction {MAX_QUBITS} "
                                  f"(alloc_ancilla 'a{MAX_QUBITS}') holds")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [
    ["synth", "--gate", "cnot"],
    ["verify", "--suite", "switch"],
    ["simulate", "PROGRAM"],
])
@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf", "-1e-300"])
def test_bad_tolerance_is_a_usage_error(tmp_path, capsys, command, tolerance):
    circ = tmp_path / "bell.circ"
    circ.write_text(BELL_TEXT)
    prog = tmp_path / "bell.json"
    run_cli(capsys, "lower", str(circ), "--output", str(prog))
    argv = [str(prog) if arg == "PROGRAM" else arg for arg in command]
    code, out, err = run_cli(capsys, *argv, f"--tolerance={tolerance}")
    assert code == 2
    assert out == ""
    assert "--tolerance: tolerance must be finite and at least 0" in err


@pytest.mark.parametrize("flag", ["--alpha", "--theta"])
def test_synth_non_finite_angle_exits_2(capsys, flag):
    argv = {"--alpha": "0.5", "--theta": "1.0", "--nx": "0", "--ny": "0.6",
            "--nz": "0.8", flag: "nan"}
    code, out, err = run_cli(capsys, "synth", "--gate", "cu",
                             *(x for item in argv.items() for x in item))
    assert code == 2
    assert out == ""
    assert err == f"error: {flag[2:]} must be finite, got nan\n"


def test_lower_overflowing_number_exits_2_with_its_location(tmp_path):
    circ = tmp_path / "inf.circ"
    circ.write_text("qubits 2\ncu 0 1 alpha=1e999 theta=1.0 nx=1 ny=0 nz=0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "switchsynth", "lower", str(circ)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: number '1e999' is not finite, "
                           "line 2, column 8\n")


@pytest.mark.parametrize("command", [
    ["synth", "--gate", "cnot"],
    ["verify", "--suite", "switch"],
    ["simulate", "PROGRAM"],
])
def test_trials_above_the_limit_is_a_usage_error(tmp_path, capsys, command):
    argv = [str(tmp_path / "unread.json") if arg == "PROGRAM" else arg
            for arg in command]
    code, out, err = run_cli(capsys, *argv, "--trials", str(MAX_TRIALS + 1))
    assert code == 2
    assert out == ""
    assert f"--trials: must be at most {MAX_TRIALS}, got {MAX_TRIALS + 1}" in err


@pytest.mark.parametrize("matrices,records", [
    ('[]', '{"op": "apply_local", "matrix": "m0", "qubits": [0]}'),
    ('{}', '{"op": "apply_local", "matrix": ["m0"], "qubits": [0]}'),
    ('{}', '{"op": "alloc_ancilla", "ancilla": ["a0"]}'),
    ('{}', '{"op": "alloc_ancilla", "ancilla": "a0"}, '
           '{"op": "measure_ancilla", "theta": "1.5", "ancilla": "a0", '
           '"result": "m0"}, {"op": "discard", "ancilla": "a0"}'),
    ('{}', '["discard", "a0"]'),
], ids=["matrices_list", "matrix_label_list", "ancilla_label_list",
        "theta_string", "record_list"])
def test_simulate_wrongly_typed_program_exits_2_without_traceback(
        tmp_path, matrices, records):
    prog = tmp_path / "typed.json"
    prog.write_text(f'{{"num_data_qubits": 1, "matrices": {matrices}, '
                    f'"instructions": [{records}]}}')
    proc = subprocess.run(
        [sys.executable, "-m", "switchsynth", "simulate", str(prog)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_simulate_unknown_record_key_exits_2_naming_it(tmp_path, capsys):
    # a misspelled "state" would otherwise parse as a |+> ancilla
    prog = tmp_path / "typo.json"
    prog.write_text('{"num_data_qubits": 1, "matrices": {}, "instructions": ['
                    '{"op": "alloc_ancilla", "ancilla": "a0", "stat": "minus"}, '
                    '{"op": "measure_ancilla", "theta": 0.5, "ancilla": "a0", '
                    '"result": "m0"}, {"op": "discard", "ancilla": "a0"}]}')
    code, out, err = run_cli(capsys, "simulate", str(prog))
    assert (code, out) == (2, "")
    assert err == "error: unknown key 'stat' in alloc_ancilla record\n"


def test_simulate_names_the_measurement_of_a_state_off_norm_1(tmp_path, capsys):
    # (1 + 3e-11) I passes the table's unitary check; three of them take the
    # measured state's squared norm 1.8e-10 off 1
    prog = tmp_path / "drift.json"
    prog.write_text('{"num_data_qubits": 1, "matrices": {'
                    '"d": [[1.00000000003, 0], [0, 0], [0, 0], [1.00000000003, 0]], '
                    '"x": [[0, 0], [1, 0], [1, 0], [0, 0]]}, "instructions": ['
                    + '{"op": "apply_local", "matrix": "d", "qubits": [0]}, ' * 3
                    + '{"op": "alloc_ancilla", "ancilla": "a0"}, '
                    '{"op": "switch_apply", "gate_a": "x", "gate_b": "x", "qubits": [0], '
                    '"ancilla": "a0"}, '
                    '{"op": "measure_ancilla", "theta": 0.5, "ancilla": "a0", '
                    '"result": "m0"}, {"op": "discard", "ancilla": "a0"}]}')
    code, out, err = run_cli(capsys, "simulate", str(prog))
    assert (code, out) == (2, "")
    assert err == "error: state measured into 'm0' is not normalized\n"


def test_simulate_refuses_a_final_state_off_norm_1(tmp_path, capsys):
    # three (1 + 3e-11) I and no measurement: the drift reaches the final state
    prog = tmp_path / "drift.json"
    prog.write_text('{"num_data_qubits": 1, "matrices": {'
                    '"d": [[1.00000000003, 0], [0, 0], [0, 0], [1.00000000003, 0]]}, '
                    '"instructions": ['
                    + ", ".join(['{"op": "apply_local", "matrix": "d", "qubits": [0]}'] * 3)
                    + ']}')
    code, out, err = run_cli(capsys, "simulate", str(prog))
    assert (code, out) == (2, "")
    assert err.startswith("error: final state is not normalized: squared norm ")


# every gate of the circuit language, once
ALL_GATES_TEXT = """qubits 3
h 0
x 1
y 2
z 0
rx 1 theta=0.3
ry 2 theta=-1.1
rz 0 theta=2.2
rn 1 theta=0.7 nx=0.6 ny=0 nz=0.8
cnot 0 1
cz 1 2
cu 0 2 alpha=0.4 theta=1.3 nx=0 ny=0.6 nz=0.8
barenco 2 1 alpha=0.2 phi=0.9 theta=1.7
"""

# SHA-256 of each command's stdout; a change to any of them changes the
# documents the CLI promises to keep byte-identical
GOLDEN_CLI_SHA256 = {
    "synth cnot json":
        "d3ed147be503003a3d3fc5ae0f176b110b53fa267490d99fc65a59a99ae64157",
    "synth cu text":
        "fd733f0dc9e7d52d51d6b08cb242fd4320eba5ab72463255fd9251ea545b9412",
    "verify all json":
        "3947c452413d5abddc9cc63b84e5a7e4c930fe35205a43115a6defe5d4a13ac0",
    "verify all text":
        "c0e72564ed44c88d33e4e8473825fd8d8e95d44544da1f78f2e99bd6cc7746e2",
    "lower":
        "53b3d7c42af14cb1fdc2d80b16f1c36cde98169d0e6143cf0e2ad12b38b01720",
    "simulate check json":
        "4e047f9d8e41e5927d1e0b604bcb51d89b914cb59f0c70f14e089dfde9281b22",
    "simulate check text":
        "67d17fc13f2c3982a86349adf3b23695025f60f1ee7ce8c4841e00fa3f1b02be",
}


def test_golden_cli_documents_are_unchanged(tmp_path, capsys):
    gates = {inst.gate for inst in parse_circuit(ALL_GATES_TEXT).instructions}
    assert gates == set(GATES)
    circ = tmp_path / "all.circ"
    circ.write_text(ALL_GATES_TEXT)
    prog = tmp_path / "all.json"
    commands = {
        "synth cnot json": ["synth", "--gate", "cnot", "--trials", "10"],
        "synth cu text": ["synth", "--gate", "cu", "--alpha", "0.3", "--theta", "1.1",
                          "--nx", "0", "--ny", "0.6", "--nz", "0.8",
                          "--trials", "10", "--format", "text"],
        "verify all json": ["verify", "--suite", "all", "--trials", "10"],
        "verify all text": ["verify", "--suite", "all", "--trials", "10",
                            "--format", "text"],
        "lower": ["lower", str(circ)],
        "simulate check json": ["simulate", str(prog), "--input", "random",
                                "--seed", "7", "--check-against", str(circ)],
        "simulate check text": ["simulate", str(prog), "--input", "random",
                                "--seed", "7", "--check-against", str(circ),
                                "--format", "text"],
    }
    digests = {}
    for name, argv in commands.items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, name
        if name == "lower":
            prog.write_text(out)
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == GOLDEN_CLI_SHA256


@pytest.mark.parametrize("kind", ["basis:x", "basis:", "basis:-1", "basis: 3",
                                  "basis:3_0", "basis:+3", "basis:1.0",
                                  "basis:٣", "basis:" + "9" * 5000])
def test_simulate_malformed_basis_input_names_the_flag_and_form(tmp_path, capsys, kind):
    circ = tmp_path / "bell.circ"
    circ.write_text(BELL_TEXT)
    prog = tmp_path / "bell.json"
    run_cli(capsys, "lower", str(circ), "--output", str(prog))
    code, out, err = run_cli(capsys, "simulate", str(prog), "--input", kind)
    assert code == 2
    assert out == ""
    assert err == "error: --input basis:K: K must be a non-negative decimal integer\n"


def test_simulate_basis_input_takes_leading_zeros(tmp_path, capsys):
    circ = tmp_path / "bell.circ"
    circ.write_text(BELL_TEXT)
    prog = tmp_path / "bell.json"
    run_cli(capsys, "lower", str(circ), "--output", str(prog))
    _, plain, _ = run_cli(capsys, "simulate", str(prog), "--input", "basis:2")
    code, padded, _ = run_cli(capsys, "simulate", str(prog), "--input", "basis:002")
    assert code == 0
    assert padded.replace("basis:002", "basis:2") == plain


# each command (CIRCUIT and PROGRAM stand for files) and the switchsynth
# modules its start loads, from process start to exit
COMMAND_MODULES = {
    ("--help",): ["switchsynth", "switchsynth.cli"],
    ("synth", "--gate", "cnot", "--trials", "2"): [
        "switchsynth", "switchsynth.circuits", "switchsynth.cli", "switchsynth.jsonio",
        "switchsynth.linalg", "switchsynth.sampling", "switchsynth.switch",
        "switchsynth.synthesis"],
    ("verify", "--suite", "channels", "--trials", "2"): [
        "switchsynth", "switchsynth.cli", "switchsynth.jsonio", "switchsynth.linalg",
        "switchsynth.sampling", "switchsynth.suites", "switchsynth.switch",
        "switchsynth.synthesis"],
    ("lower", "CIRCUIT"): [
        "switchsynth", "switchsynth.circuits", "switchsynth.cli", "switchsynth.jsonio",
        "switchsynth.linalg", "switchsynth.lowering", "switchsynth.programs",
        "switchsynth.sampling", "switchsynth.switch", "switchsynth.synthesis"],
    ("simulate", "PROGRAM", "--check-against", "CIRCUIT", "--trials", "2"): [
        "switchsynth", "switchsynth.circuits", "switchsynth.cli", "switchsynth.jsonio",
        "switchsynth.linalg", "switchsynth.lowering", "switchsynth.programs",
        "switchsynth.sampling", "switchsynth.switch", "switchsynth.synthesis"],
    ("simulate", "PROGRAM"): [
        "switchsynth", "switchsynth.cli", "switchsynth.jsonio", "switchsynth.linalg",
        "switchsynth.programs", "switchsynth.switch"],
    ("simulate", "PROGRAM", "--input", "random"): [
        "switchsynth", "switchsynth.cli", "switchsynth.jsonio", "switchsynth.linalg",
        "switchsynth.programs", "switchsynth.sampling", "switchsynth.switch"],
}


@pytest.mark.parametrize("command", COMMAND_MODULES, ids=" ".join)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    circ = tmp_path / "bell.circ"
    circ.write_text(BELL_TEXT)
    prog = tmp_path / "bell.json"
    main(["lower", str(circ), "--output", str(prog)])
    files = {"CIRCUIT": str(circ), "PROGRAM": str(prog)}
    argv = [files.get(arg, arg) for arg in command]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, json, os, sys\n"
         "from switchsynth.cli import main\n"
         "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
         f"    code = main({argv!r})\n"
         "print(json.dumps([code, sorted(m for m in sys.modules\n"
         "                               if m.startswith('switchsynth'))]))"],
        capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == [0, COMMAND_MODULES[command]]


@pytest.mark.parametrize("command", [command for command in COMMAND_MODULES
                                     if command[0] in ("synth", "verify")],
                         ids=lambda command: command[0])
def test_synth_and_verify_starts_leave_the_json_package_unloaded(command):
    # jsonio quotes strings with the C function json.encoder re-exports
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, os, sys\n"
         "from switchsynth.cli import main\n"
         "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
         f"    code = main({list(command)!r})\n"
         "print(code, 'json' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "0 False\n"


def _without_thread_vars(**extra):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    return {**env, **extra}


def test_documents_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 14 data qubits: with two BLAS threads numpy's large-state sums round
    # differently from one thread, and the final state's bytes change
    rng = random.Random(5)
    lines = ["qubits 14"]
    for _ in range(40):
        a, b = rng.sample(range(14), 2)
        lines += [f"h {rng.randrange(14)}", f"cnot {a} {b}"]
    circ = tmp_path / "wide.circ"
    circ.write_text("\n".join(lines) + "\n")
    prog = tmp_path / "wide.json"
    subprocess.run([sys.executable, "-m", "switchsynth", "lower", str(circ),
                    "--output", str(prog)], env=_without_thread_vars(), check=True)
    outputs = [subprocess.run(
        [sys.executable, "-m", "switchsynth", "simulate", str(prog), "--input", "random"],
        capture_output=True, env=env, check=True).stdout
        for env in (_without_thread_vars(), _without_thread_vars(OPENBLAS_NUM_THREADS="1"))]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("variables,numpy_first,expected", [
    ({}, False, "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, False, None),
    ({"OMP_NUM_THREADS": "2"}, False, "2"),
    ({}, True, None),
], ids=["unset", "user_openblas", "user_omp", "numpy_loaded"])
def test_main_defaults_to_one_blas_thread_only_when_nothing_is_set(
        variables, numpy_first, expected):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, os\n"
         + ("import numpy\n" if numpy_first else "")
         + "from switchsynth.cli import main\n"
         "main(['lower', '--help'])\n"
         "print(json.dumps(os.environ.get('OMP_NUM_THREADS')))"],
        capture_output=True, text=True, env=_without_thread_vars(**variables), check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == expected


# number text that int() or float() reads but circuit text refuses
@pytest.mark.parametrize("flag,kind,text", [
    ("--trials", "int", "١٠"),
    ("--trials", "int", "1_0"),
    ("--seed", "int", "٣"),
    ("--seed", "int", "-1"),
    ("--seed", "int", " 3"),
    ("--tolerance", "float", "1_0"),
    ("--alpha", "float", "١"),
    ("--alpha", "float", " 1"),
    ("--alpha", "float", "1_0"),
])
def test_numeric_flags_take_the_number_text_circuit_text_takes(capsys, flag, kind, text):
    argv = {"--alpha": "0.5", "--theta": "1.0", "--nx": "0", "--ny": "0.6",
            "--nz": "0.8", flag: text}
    code, out, err = run_cli(capsys, "synth", "--gate", "cu",
                             *(x for item in argv.items() for x in item))
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {flag}: invalid {kind} value: {text!r}\n")


@pytest.mark.parametrize("command", [["verify", "--suite", "switch"],
                                     ["synth", "--gate", "cnot"]])
def test_a_negative_seed_is_a_usage_error_naming_the_flag(capsys, command):
    code, out, err = run_cli(capsys, *command, "--seed", "-1")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --seed: invalid int value: '-1'\n")


def test_numeric_flags_take_leading_zeros_and_exponents(capsys):
    _, plain, _ = run_cli(capsys, "synth", "--gate", "cu", "--alpha", "0.5",
                          "--theta", "1", "--nx", "0", "--ny", "0.6", "--nz", "0.8",
                          "--trials", "3", "--seed", "7")
    code, spelled, _ = run_cli(capsys, "synth", "--gate", "cu", "--alpha", "5e-1",
                               "--theta", "+1.", "--nx", "0e0", "--ny", ".6",
                               "--nz", "0.80", "--trials", "003", "--seed", "07")
    assert (code, spelled) == (0, plain)


def test_synth_snaps_an_axis_as_circuit_text_does(capsys):
    code, out, _ = run_cli(capsys, "synth", "--gate", "cu", "--alpha", "0",
                           "--theta", "1", "--nx", "0.6", "--ny", "0",
                           "--nz", "0.8000001", "--trials", "1")
    assert code == 0
    circuit = parse_circuit("qubits 2\ncu 0 1 alpha=0 theta=1 nx=0.6 ny=0 nz=0.8000001\n")
    spec = controlled_gate_spec(circuit.instructions[0])
    assert json.loads(out)["spec"]["axis"] == list(spec.axis)
    assert spec.axis != (0.6, 0.0, 0.8000001)


@pytest.mark.parametrize("nz", ["0.9", "0.80001", "nan", "1e999"])
def test_synth_axis_off_unit_length_is_a_usage_error_naming_the_flags(capsys, nz):
    code, out, err = run_cli(capsys, "synth", "--gate", "cu", "--alpha", "0",
                             "--theta", "1", "--nx", "0.6", "--ny", "0", "--nz", nz)
    assert (code, out) == (2, "")
    assert "error: --nx/--ny/--nz: axis (nx, ny, nz) must be unit length, got |n| = " in err


@pytest.mark.parametrize("flag", ["--alpha", "--theta"])
def test_synth_angle_past_the_exact_fold_exits_2(capsys, flag):
    argv = {"--alpha": "0.5", "--theta": "1.0", "--nx": "0", "--ny": "0.6",
            "--nz": "0.8", flag: "1e12"}
    code, out, err = run_cli(capsys, "synth", "--gate", "cu",
                             *(x for item in argv.items() for x in item))
    assert code == 2
    assert out == ""
    assert err == f"error: |{flag[2:]}| must be at most 2**20, got 1000000000000.0\n"


def test_barenco_at_the_fold_bound_lowers_and_checks(tmp_path, capsys):
    circ = tmp_path / "bound.circ"
    circ.write_text("qubits 2\nbarenco 0 1 alpha=0.3 phi=0.7 theta=1048576\n")
    prog = tmp_path / "bound.json"
    assert run_cli(capsys, "lower", str(circ), "--output", str(prog))[0] == 0
    code, out, _ = run_cli(capsys, "simulate", str(prog), "--check-against", str(circ))
    assert code == 0
    assert json.loads(out)["equivalence"]["max_infidelity"] <= 1e-15
