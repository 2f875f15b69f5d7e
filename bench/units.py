"""One unit of work per workload, its correctness gate, and its CLI command.

A unit is ``run`` (the timed library pipeline) followed by ``check`` (the
untimed gate). Every call into the library goes through ``Tracer.call`` so a
traced run records a span per call; the span name is the owning module and
function. Only the public API is used, plus ``switchsynth.jsonio.dumps``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from switchsynth import (
    PLUS,
    ControlledGateSpec,
    KrausChannel,
    apply_switch,
    check_equivalence,
    cu_matrix,
    lower,
    measure_ancilla,
    parse_circuit,
    parse_program,
    preset,
    preset_barenco,
    run_suite,
    serialize_program,
    simulate_circuit,
    simulate_program,
    switch_channel,
    switch_channel_n,
    switch_unitary,
    synthesize,
    validate_program,
    verify_synthesis,
)
from switchsynth.jsonio import dumps

# the paper's claim is exact; 1e-10 is the library's own tolerance class
ATOL = 1e-10


class Gate:
    """Collects one unit's checks; a unit that checked nothing fails."""

    def __init__(self):
        self.checked = 0
        self.failures: list[tuple[str, str]] = []

    def require(self, module: str, ok, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append((module, what))

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.failures


# ---------------------------------------------------------------------------
# equivalence: parse -> lower -> serialize -> parse_program -> simulate ->
# check_equivalence (every branch assignment, fixed trials)
# ---------------------------------------------------------------------------


def _compile_front(tr, u):
    circuit = tr.call("circuits.parse", parse_circuit, u["text"])
    program = tr.call("lowering.lower", lower, circuit)
    text = tr.call("programs.serialize", serialize_program, program)
    parsed = tr.call("programs.parse", parse_program, text)
    trace = tr.call("programs.simulate", simulate_program, parsed, u["psi"],
                    seed=u["seed"])
    return circuit, text, parsed, trace


def run_equivalence(tr, u):
    circuit, text, parsed, trace = _compile_front(tr, u)
    report = tr.call("lowering.check_equivalence", check_equivalence, circuit,
                     parsed, trials=u["trials"], seed=u["seed"])
    return {"text": text, "trace": trace, "report": report}


def check_equivalence_unit(tr, u, out, gate: Gate) -> None:
    report = out["report"]
    k = u["controlled"]
    gate.require("lowering", report.passed,
                 f"check_equivalence failed, max_infidelity {report.max_infidelity}")
    gate.require("lowering", report.branch_assignments == 2 ** k,
                 f"{report.branch_assignments} branch assignments, expected {2 ** k}")
    gate.require("lowering", report.trials >= 1, f"{report.trials} trials")
    gate.require("programs", len(out["trace"].measurement_record) == k,
                 f"{len(out['trace'].measurement_record)} measurements, expected {k}")


# ---------------------------------------------------------------------------
# compile: parse -> lower -> serialize -> parse_program, one sampled
# simulate_program against simulate_circuit
# ---------------------------------------------------------------------------


def run_compile(tr, u):
    circuit, text, parsed, trace = _compile_front(tr, u)
    expected = tr.call("circuits.simulate", simulate_circuit, circuit, u["psi"])
    return {"text": text, "parsed": parsed, "trace": trace, "expected": expected}


def check_compile_unit(tr, u, out, gate: Gate) -> None:
    text, parsed, trace = out["text"], out["parsed"], out["trace"]
    again = tr.call("programs.serialize", serialize_program, parsed)
    gate.require("programs", again == text, "serialize -> parse -> serialize differs")
    tr.call("programs.validate", validate_program, parsed)
    canonical = tr.call("jsonio.dumps", dumps, json.loads(text))
    gate.require("jsonio", canonical == text, "program document is not canonical")
    err = float(np.linalg.norm(trace.final_state - out["expected"]))
    gate.require("programs", err <= ATOL,
                 f"final state differs from simulate_circuit by {err:.3e}")
    probs = [p for _, _, p in trace.measurement_record]
    gate.require("programs", len(probs) == u["controlled"],
                 f"{len(probs)} measurements, expected {u['controlled']}")
    worst = max((abs(p - 0.5) for p in probs), default=math.inf)
    gate.require("programs", worst <= ATOL,
                 f"branch probability off 1/2 by {worst:.3e}")


# ---------------------------------------------------------------------------
# synth: synthesize, the README quick-start pipeline, verify_synthesis
# ---------------------------------------------------------------------------


def build_spec(spec: dict) -> ControlledGateSpec:
    if spec["kind"] == "cu":
        return ControlledGateSpec(alpha=spec["alpha"], theta=spec["theta"],
                                  axis=spec["axis"])
    if spec["kind"] == "barenco":
        return preset_barenco(spec["alpha"], spec["phi"], spec["theta"])
    return preset(spec["kind"])


def run_synth(tr, u):
    spec = u["spec_obj"]
    plan = tr.call("synthesis.synthesize", synthesize, spec)
    joint = tr.call("switch.switch_unitary", switch_unitary, plan.gate_a,
                    plan.gate_b)
    staged = tr.call("switch.apply_switch", apply_switch, joint,
                     plan.pre @ u["psi"], PLUS)
    plus, minus = tr.call("switch.measure_ancilla", measure_ancilla, staged,
                          plan.measurement_theta)
    branches = [None if outcome.post_state is None else corr @ outcome.post_state
                for outcome, corr in ((plus, plan.post_plus),
                                      (minus, plan.post_minus))]
    report = tr.call("synthesis.verify", verify_synthesis, spec,
                     trials=u["trials"], seed=u["seed"])
    return {"branches": branches, "probs": (plus.probability, minus.probability),
            "report": report}


def check_synth_unit(tr, u, out, gate: Gate) -> None:
    expected = tr.call("synthesis.cu_matrix", cu_matrix, u["spec_obj"]) @ u["psi"]
    for name, state in zip(("plus", "minus"), out["branches"]):
        err = math.inf if state is None else float(np.linalg.norm(state - expected))
        gate.require("switch", err <= ATOL,
                     f"{name} branch differs from CU psi by {err:.3e}")
    worst = max(abs(p - 0.5) for p in out["probs"])
    gate.require("switch", worst <= ATOL, f"branch probability off 1/2 by {worst:.3e}")
    report = out["report"]
    gate.require("synthesis", report.passed,
                 f"verify_synthesis failed, max_infidelity {report.max_infidelity}")
    gate.require("synthesis", report.trials >= 1, f"{report.trials} trials")


# ---------------------------------------------------------------------------
# channels: small N = 2 cases in both forms, large N = 3-4 Kraus cases, and
# one property-suite pass
# ---------------------------------------------------------------------------


def kraus_terms(u) -> int:
    """Kraus terms of the joint map per evaluation: prod(ranks) * N!."""
    return math.prod(u["ranks"]) * math.factorial(len(u["ranks"]))


def run_channels(tr, u):
    if u["kind"] == "suite":
        return {"suite": tr.call("suites.run_suite", run_suite, "channels",
                                 trials=u["trials"], seed=u["seed"])}
    chans = u["channels"]
    if u["kind"] == "small":
        return {"four_term": tr.call("switch.channel", switch_channel, chans[0],
                                     chans[1], u["rho"], u["omega"]),
                "kraus": tr.call("switch.channel_n", switch_channel_n, chans,
                                 u["rho"], u["omega"])}
    return {"kraus": tr.call("switch.channel_n", switch_channel_n, chans, u["rho"])}


def check_channels_unit(tr, u, out, gate: Gate) -> None:
    if u["kind"] == "suite":
        results = out["suite"]
        gate.require("suites", len(results) > 0, "suite returned no properties")
        failing = [r.name for r in results if not r.passed]
        gate.require("suites", not failing, f"failing properties {failing}")
        return
    for form, rho in out.items():
        trace_err = abs(np.trace(rho) - 1.0)
        gate.require("switch", trace_err <= ATOL,
                     f"{form} output trace off 1 by {trace_err:.3e}")
        herm = float(np.linalg.norm(rho - rho.conj().T))
        gate.require("switch", herm <= ATOL,
                     f"{form} output not Hermitian ({herm:.3e})")
    if u["kind"] == "small":
        diff = float(np.linalg.norm(out["four_term"] - out["kraus"]))
        gate.require("switch", diff <= ATOL,
                     f"four-term and Kraus forms differ by {diff:.3e}")


# ---------------------------------------------------------------------------
# workload table
# ---------------------------------------------------------------------------


def prepare(workload: str, data: dict) -> list[dict]:
    """The unit pool: generated units plus their library-side input objects.

    ``data`` is left as generated, so its digest stays comparable.
    """
    pool = []
    for u in data["units"]:
        u = dict(u)
        if workload in ("equivalence", "synth"):
            u["trials"] = data["trials"]
        if workload == "synth":
            u["spec_obj"] = build_spec(u["spec"])
        if workload == "channels" and u["kind"] != "suite":
            u["channels"] = [KrausChannel(ops) for ops in u["kraus"]]
        pool.append(u)
    return pool


WORKLOADS = {
    "equivalence": (run_equivalence, check_equivalence_unit),
    "compile": (run_compile, check_compile_unit),
    "synth": (run_synth, check_synth_unit),
    "channels": (run_channels, check_channels_unit),
}


def cli_case(workload: str, data: dict, outdir: Path):
    """The workload's CLI command: (argv, expected stdout or None, check).

    ``check(stdout)`` returns a failure message or None. Input files are
    written under ``outdir``.
    """
    cli = data["cli"]

    def passed(stdout: str):
        return None if json.loads(stdout).get("passed") is True else "passed is not true"

    if workload == "equivalence":
        circuit_path = outdir / "circuit.txt"
        program_path = outdir / "program.json"
        circuit_path.write_text(cli["text"])
        program_path.write_text(serialize_program(lower(parse_circuit(cli["text"]))))

        def check(stdout: str):
            doc = json.loads(stdout)
            if doc.get("equivalence", {}).get("branch_assignments") != 2 ** cli["controlled"]:
                return "equivalence did not enumerate every branch"
            return passed(stdout)

        return (["simulate", str(program_path), "--check-against", str(circuit_path),
                 "--trials", str(data["trials"]), "--seed", str(cli["seed"])],
                None, check)
    if workload == "compile":
        circuit_path = outdir / "circuit.txt"
        circuit_path.write_text(cli["text"])
        expected = serialize_program(lower(parse_circuit(cli["text"])))
        return ["lower", str(circuit_path)], expected, lambda stdout: None
    if workload == "synth":
        spec = cli["spec"]
        nx, ny, nz = spec["axis"]
        return (["synth", "--gate", "cu", "--alpha", repr(spec["alpha"]),
                 "--theta", repr(spec["theta"]), "--nx", repr(nx), "--ny", repr(ny),
                 "--nz", repr(nz), "--seed", str(cli["seed"])], None, passed)
    return (["verify", "--suite", "channels", "--trials", str(cli["trials"]),
             "--seed", str(cli["seed"])], None, passed)
