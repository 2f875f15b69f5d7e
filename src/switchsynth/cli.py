"""Command line interface.

Subcommands: ``synth`` (plan + certificate for one controlled gate),
``verify`` (property suites), ``lower`` (circuit file to switch program),
``simulate`` (run a program, optionally checking it against a circuit).

Exit codes: 0 success, 1 a verification or equivalence check failed,
2 usage, parse, or I/O errors. Given the same seed and inputs, emitted
documents are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from .circuits import CONTROLLED_GATES, GATES, CircuitParseError, parse_circuit
from .jsonio import dumps, format_float
from .lowering import check_equivalence, lower
from .programs import (
    ProgramError,
    parse_program,
    serialize_program,
    simulate_program,
)
from .sampling import random_state
from .suites import SUITE_NAMES, run_suite
from .synthesis import ControlledGateSpec, synthesize, verify_synthesis
from .linalg import DEFAULT_TOLERANCE, basis_state, require_tolerance, require_trials


def _complex_text(values) -> str:
    """Complex numbers as ``+re+imj`` with 6 decimals, two spaces apart."""
    return "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in values)


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _checked(convert, require, prefix: str = ""):
    """argparse type: ``require(convert(text))``; ``prefix`` is cut from
    ``require``'s message, since argparse already names the flag."""
    def check(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        try:
            return require(value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err).removeprefix(prefix)) from None
    return check


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trials", type=_checked(int, require_trials, "trials "),
                        default=100)
    parser.add_argument("--tolerance", type=_checked(float, require_tolerance),
                        default=DEFAULT_TOLERANCE)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--output", default=None, metavar="PATH")


# every parameter flag of synth: the union of its gates' parameters
_PARAM_FLAGS = tuple(dict.fromkeys(p for g in CONTROLLED_GATES
                                   for p in GATES[g].params))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchsynth",
        description="Controlled gates from single-qubit gates in superposed "
                    "causal orders.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize and certify one gate")
    synth.add_argument("--gate", choices=CONTROLLED_GATES, required=True)
    for flag in _PARAM_FLAGS:
        synth.add_argument(f"--{flag}", type=float, default=None)
    _add_common(synth)
    synth.set_defaults(run=lambda args: cmd_synth(args, parser))

    verify = sub.add_parser("verify", help="run a property suite")
    verify.add_argument("--suite", choices=SUITE_NAMES, required=True)
    _add_common(verify)
    verify.set_defaults(run=cmd_verify)

    lower_cmd = sub.add_parser("lower", help="compile a circuit file")
    lower_cmd.add_argument("input", metavar="CIRCUIT")
    lower_cmd.add_argument("--output", default=None, metavar="PATH")
    lower_cmd.set_defaults(run=cmd_lower)

    simulate = sub.add_parser("simulate", help="run a switch program")
    simulate.add_argument("program", metavar="PROGRAM")
    simulate.add_argument("--input", default="zeros",
                          help="zeros, basis:K, or random (default zeros)")
    simulate.add_argument("--check-against", default=None, metavar="CIRCUIT")
    _add_common(simulate)
    simulate.set_defaults(run=cmd_simulate)
    return parser


def _spec_for_gate(args, parser: argparse.ArgumentParser) -> ControlledGateSpec:
    gate = GATES[args.gate]
    missing = [f"--{name}" for name in gate.params if getattr(args, name) is None]
    if missing:
        parser.error(f"--gate {args.gate} requires {' '.join(missing)}")
    extra = [f"--{name}" for name in _PARAM_FLAGS
             if name not in gate.params and getattr(args, name) is not None]
    if extra:
        parser.error(f"--gate {args.gate} does not take {' '.join(extra)}")
    return gate.spec({name: getattr(args, name) for name in gate.params})


def cmd_synth(args, parser: argparse.ArgumentParser) -> int:
    spec = _spec_for_gate(args, parser)
    plan = synthesize(spec)
    report = verify_synthesis(spec, trials=args.trials, seed=args.seed,
                              tolerance=args.tolerance, target_name=args.gate)
    matrices = {
        "pre": plan.pre,
        "gate_a": plan.gate_a,
        "gate_b": plan.gate_b,
        "post_plus": plan.post_plus,
        "post_minus": plan.post_minus,
    }
    factors = {f.name: getattr(plan, f.name) for f in fields(plan)
               if f.name.endswith(("_control", "_target"))}
    if args.format == "json":
        doc = report.as_dict()
        doc["spec"] = {
            "alpha": spec.alpha, "theta": spec.theta,
            "axis": list(spec.axis), "perp": list(spec.perp),
        }
        doc["plan"] = {
            "measurement_theta": plan.measurement_theta,
            "phase": plan.phase,
            **matrices,
            "factors": factors,
        }
        text = dumps(doc)
    else:
        lines = [f"target: {args.gate}"]
        lines.append(f"spec: alpha={format_float(spec.alpha)} "
                     f"theta={format_float(spec.theta)} "
                     f"axis=({', '.join(format_float(v) for v in spec.axis)}) "
                     f"perp=({', '.join(format_float(v) for v in spec.perp)})")
        lines.append(f"measurement_theta: {format_float(plan.measurement_theta)}")
        lines.append(f"phase: {_complex_text([plan.phase])}")
        for key, m in matrices.items():
            lines.append(f"{key}:")
            lines += ["  " + _complex_text(row) for row in m]
        lines.append(f"residual_plus: {format_float(report.residual_plus)}")
        lines.append(f"residual_minus: {format_float(report.residual_minus)}")
        lines.append(f"bare_correction_residual: {format_float(report.bare_correction_residual)}")
        lines.append("branch_probabilities: "
                     f"{format_float(report.branch_probabilities[0])} "
                     f"{format_float(report.branch_probabilities[1])}")
        lines.append(f"max_infidelity: {format_float(report.max_infidelity)}")
        lines.append(f"trials: {report.trials}")
        lines.append(f"seed: {report.seed}")
        lines.append(f"passed: {str(report.passed).lower()}")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    results = run_suite(args.suite, trials=args.trials, seed=args.seed,
                        tolerance=args.tolerance)
    passed = all(r.passed for r in results)
    if args.format == "json":
        doc = {
            "suite": args.suite,
            "trials": args.trials,
            "seed": args.seed,
            "properties": [r.as_dict() for r in results],
            "passed": passed,
        }
        text = dumps(doc)
    else:
        lines = [f"suite: {args.suite} (trials={args.trials}, seed={args.seed})"]
        for r in results:
            status = "pass" if r.passed else "FAIL"
            lines.append(f"  [{status}] {r.suite}/{r.name}: "
                         f"max_residual={format_float(r.max_residual)} "
                         f"tolerance={format_float(r.tolerance)}")
        lines.append(f"passed: {str(passed).lower()}")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    if not passed:
        failing = ", ".join(f"{r.suite}/{r.name}" for r in results if not r.passed)
        print(f"failing properties: {failing}", file=sys.stderr)
    return 0 if passed else 1


def cmd_lower(args) -> int:
    with open(args.input) as handle:
        circuit = parse_circuit(handle.read())
    _write_output(serialize_program(lower(circuit)), args.output)
    return 0


def _initial_state(kind: str, num_qubits: int, seed: int) -> np.ndarray:
    if kind == "zeros":
        return basis_state(num_qubits, 0)
    if kind == "random":
        return random_state(np.random.default_rng([seed, 1]), num_qubits)
    if kind.startswith("basis:"):
        return basis_state(num_qubits, int(kind.split(":", 1)[1]))
    raise ValueError(f"unknown input kind {kind!r}, expected zeros, "
                     f"basis:K, or random")


def cmd_simulate(args) -> int:
    with open(args.program) as handle:
        program = parse_program(handle.read())
    state = _initial_state(args.input, program.num_data_qubits, args.seed)
    trace = simulate_program(program, state, seed=args.seed)
    equivalence = None
    if args.check_against is not None:
        with open(args.check_against) as handle:
            circuit = parse_circuit(handle.read())
        equivalence = check_equivalence(circuit, program, trials=args.trials,
                                        seed=args.seed, tolerance=args.tolerance)
    passed = equivalence.passed if equivalence is not None else True
    if args.format == "json":
        doc = {
            "num_data_qubits": program.num_data_qubits,
            "input": args.input,
            "seed": args.seed,
            "final_state": trace.final_state,
            "measurements": [
                {"label": label, "outcome": outcome, "probability": probability}
                for label, outcome, probability in trace.measurement_record
            ],
        }
        if equivalence is not None:
            doc["equivalence"] = equivalence.as_dict()
        doc["passed"] = passed
        text = dumps(doc)
    else:
        lines = [f"input: {args.input} (seed={args.seed})"]
        lines.append(f"final_state: {_complex_text(trace.final_state)}")
        for label, outcome, probability in trace.measurement_record:
            lines.append(f"measured {label}: {outcome} "
                         f"(probability {format_float(probability)})")
        if equivalence is not None:
            lines.append(f"max_infidelity: "
                         f"{format_float(equivalence.max_infidelity)} over "
                         f"{equivalence.trials} trials x "
                         f"{equivalence.branch_assignments} branch assignments")
        lines.append(f"passed: {str(passed).lower()}")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return args.run(args)
    except SystemExit as err:  # parser.error inside a command
        return int(err.code or 0)
    except (CircuitParseError, ProgramError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
