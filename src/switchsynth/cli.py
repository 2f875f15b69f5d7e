"""Command line interface.

Subcommands: ``synth`` (plan + certificate for one controlled gate),
``verify`` (property suites), ``lower`` (circuit file to switch program),
``simulate`` (run a program, optionally checking it against a circuit).

Exit codes: 0 success, 1 a verification or equivalence check failed,
2 usage, parse, or I/O errors. Given the same seed and inputs, emitted
documents are byte-identical.

Each command imports only the modules it runs. Unless one of
``THREAD_VARS`` is set, ``main`` starts numpy on one BLAS thread: with more,
a large state's sums can round differently with the host's core count.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _complex_text(values) -> str:
    """Complex numbers as ``+re+imj`` with 6 decimals, two spaces apart."""
    return "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in values)


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _checked(pattern, convert, require=lambda value: value, prefix: str = ""):
    """argparse type: ``require(convert(text))``, a finite number spelled as
    circuit text spells it (``pattern`` matches it whole); ``prefix`` is cut
    from ``require``'s message, since argparse already names the flag."""
    def check(text: str):
        try:
            value = convert(text)
            if abs(value) < float("inf") and not pattern.fullmatch(text):
                raise ValueError(text)
        except ValueError:  # more digits than int() converts too
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        try:
            return require(value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err).removeprefix(prefix)) from None
    return check


def _add_common(parser: argparse.ArgumentParser) -> None:
    from .linalg import (_FLOAT_RE, _INT_RE, DEFAULT_TOLERANCE, require_tolerance,
                         require_trials)
    parser.add_argument("--seed", type=_checked(_INT_RE, int), default=42)
    parser.add_argument("--trials", type=_checked(_INT_RE, int, require_trials, "trials "),
                        default=100)
    parser.add_argument("--tolerance", default=DEFAULT_TOLERANCE,
                        type=_checked(_FLOAT_RE, float, require_tolerance))
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--output", default=None, metavar="PATH")


class _Command(argparse.ArgumentParser):
    """A subcommand's parser; ``add(parser)`` adds its arguments when it is
    first parsed, so the modules they name load only for that command."""

    def __init__(self, *, add, **kwargs):
        super().__init__(**kwargs)
        self._add = add

    def parse_known_args(self, args=None, namespace=None):
        if self._add is not None:
            add, self._add = self._add, None
            add(self)
        return super().parse_known_args(args, namespace)


def _add_synth(synth: argparse.ArgumentParser) -> None:
    from .circuits import _FLOAT_RE, CONTROLLED_GATES, GATES
    # every parameter flag: the union of the controlled gates' parameters
    flags = tuple(dict.fromkeys(p for g in CONTROLLED_GATES for p in GATES[g].params))
    synth.add_argument("--gate", choices=CONTROLLED_GATES, required=True)
    for flag in flags:
        synth.add_argument(f"--{flag}", type=_checked(_FLOAT_RE, float), default=None)
    _add_common(synth)
    synth.set_defaults(run=lambda args: cmd_synth(args, synth, flags))


def _add_verify(verify: argparse.ArgumentParser) -> None:
    from .suites import SUITE_NAMES
    verify.add_argument("--suite", choices=SUITE_NAMES, required=True)
    _add_common(verify)
    verify.set_defaults(run=cmd_verify)


def _add_lower(lower_cmd: argparse.ArgumentParser) -> None:
    lower_cmd.add_argument("input", metavar="CIRCUIT")
    lower_cmd.add_argument("--output", default=None, metavar="PATH")
    lower_cmd.set_defaults(run=cmd_lower)


def _add_simulate(simulate: argparse.ArgumentParser) -> None:
    simulate.add_argument("program", metavar="PROGRAM")
    simulate.add_argument("--input", default="zeros",
                          help="zeros, basis:K, or random (default zeros)")
    simulate.add_argument("--check-against", default=None, metavar="CIRCUIT")
    _add_common(simulate)
    simulate.set_defaults(run=cmd_simulate)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchsynth",
        description="Controlled gates from single-qubit gates in superposed "
                    "causal orders.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)
    sub.add_parser("synth", help="synthesize and certify one gate", add=_add_synth)
    sub.add_parser("verify", help="run a property suite", add=_add_verify)
    sub.add_parser("lower", help="compile a circuit file", add=_add_lower)
    sub.add_parser("simulate", help="run a switch program", add=_add_simulate)
    return parser


def _spec_for_gate(args, parser: argparse.ArgumentParser, flags: tuple[str, ...]):
    from .circuits import GATES, _snap_axis
    gate = GATES[args.gate]
    missing = [f"--{name}" for name in gate.params if getattr(args, name) is None]
    if missing:
        parser.error(f"--gate {args.gate} requires {' '.join(missing)}")
    extra = [f"--{name}" for name in flags
             if name not in gate.params and getattr(args, name) is not None]
    if extra:
        parser.error(f"--gate {args.gate} does not take {' '.join(extra)}")
    values = {name: getattr(args, name) for name in gate.params}
    if "nx" in values:  # the axis rule of circuit text
        _snap_axis(values, lambda msg: ValueError(f"--nx/--ny/--nz: {msg}"))
    return gate.spec(values)


def cmd_synth(args, parser: argparse.ArgumentParser, flags: tuple[str, ...]) -> int:
    from .jsonio import dumps, format_float, format_measured, report_document
    from .synthesis import PLAN_MATRICES, synthesize, verify_synthesis
    spec = _spec_for_gate(args, parser, flags)
    plan = synthesize(spec)
    report = verify_synthesis(spec, trials=args.trials, seed=args.seed,
                              tolerance=args.tolerance, target_name=args.gate)
    matrices = {name: getattr(plan, name) for name in PLAN_MATRICES}
    factors = {f.name: getattr(plan, f.name) for f in fields(plan)
               if f.name.endswith(("_control", "_target"))}
    if args.format == "json":
        doc = report.as_dict()
        doc["spec"] = report_document(spec)  # alpha, theta, axis, perp
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
        lines += [f"{key}: {format_measured(getattr(report, key))}" for key in
                  ("residual_plus", "residual_minus", "bare_correction_residual")]
        lines.append("branch_probabilities: "
                     + " ".join(map(format_measured, report.branch_probabilities)))
        lines.append(f"max_infidelity: {format_measured(report.max_infidelity)}")
        lines.append(f"trials: {report.trials}")
        lines.append(f"seed: {report.seed}")
        lines.append(f"passed: {str(report.passed).lower()}")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    from .jsonio import dumps, format_float, format_measured
    from .suites import run_suite
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
                         f"max_residual={format_measured(r.max_residual)} "
                         f"tolerance={format_float(r.tolerance)}")
        lines.append(f"passed: {str(passed).lower()}")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    if not passed:
        failing = ", ".join(f"{r.suite}/{r.name}" for r in results if not r.passed)
        print(f"failing properties: {failing}", file=sys.stderr)
    return 0 if passed else 1


def cmd_lower(args) -> int:
    from .circuits import parse_circuit
    from .lowering import lower
    from .programs import serialize_program
    with open(args.input) as handle:
        circuit = parse_circuit(handle.read())
    _write_output(serialize_program(lower(circuit)), args.output)
    return 0


def _initial_state(kind: str, num_qubits: int, seed: int) -> np.ndarray:
    import numpy as np
    from .linalg import _INT_RE, basis_state
    if kind == "random":
        from .sampling import random_state
        return random_state(np.random.default_rng([seed, 1]), num_qubits)
    k = "0" if kind == "zeros" else kind.removeprefix("basis:")
    if k == kind:
        raise ValueError(f"unknown input kind {kind!r}, expected zeros, basis:K, or random")
    try:  # int() also takes signs, spaces, "_" and other scripts' digits
        index = _checked(_INT_RE, int)(k)
    except argparse.ArgumentTypeError:
        raise ValueError("--input basis:K: K must be a non-negative decimal integer") from None
    return basis_state(num_qubits, index)


def cmd_simulate(args) -> int:
    from .jsonio import dumps, format_float, format_measured
    from .programs import parse_program, simulate_program
    with open(args.program) as handle:
        program = parse_program(handle.read())
    state = _initial_state(args.input, program.num_data_qubits, args.seed)
    trace = simulate_program(program, state, seed=args.seed)
    equivalence = None
    if args.check_against is not None:
        from .circuits import parse_circuit
        from .lowering import check_equivalence
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
                         f"{format_measured(equivalence.max_infidelity)} over "
                         f"{equivalence.trials} trials x "
                         f"{equivalence.branch_assignments} branch assignments")
        lines.append(f"passed: {str(passed).lower()}")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    return 0 if passed else 1


def main(argv=None) -> int:
    # BLAS reads its thread count once, when numpy loads
    if "numpy" not in sys.modules and not any(var in os.environ for var in THREAD_VARS):
        os.environ["OMP_NUM_THREADS"] = "1"
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return args.run(args)
    except SystemExit as err:  # parser.error inside a command
        return int(err.code or 0)
    except (OSError, ValueError) as err:  # CircuitParseError, ProgramError too
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
