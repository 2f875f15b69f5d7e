"""switchsynth benchmark: four seeded closed-loop workloads, one process.

Usage, from the repository root:

    python3 bench/run.py --workload equivalence --seed 1 --seconds 12 --trace 0

Workloads: equivalence, compile, synth, channels (see bench/README.md for
why each exists). One caller runs units back to back; after the timed loop
the workload's CLI command is started one child process at a time.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from spans kept around every call
the benchmark makes into the library, and the spans are written to
``.bench_out/``. Every unit's output is checked; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code
0 when every check passed, 1 when one failed, 2 when the library source is
missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("equivalence", "compile", "synth", "channels")

# Fixed per workload so that the reported percentile does not switch between
# runs; each leaves at least ten samples beyond it at the benchmark's run
# length (checked at run time, stepping down the ladder if not). Where slot
# shapes differ the tail falls in a group of one shape (inputs.py); synth's
# units all have one shape, so above p75 its percentiles measure host noise
# (p95 spread 0.14, p99 0.27 across five seeds, against 0.03 at p75).
TAIL_PERCENTILE = {"equivalence": 75.0, "compile": 75.0, "synth": 75.0,
                   "channels": 99.0}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_SAMPLES = 5   # child processes, each timing its own set-up
CLI_STARTS = 11
CHILD_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")

LAYER_SPANS = (
    "circuits.parse", "circuits.simulate",
    "lowering.lower", "lowering.check_equivalence",
    "programs.serialize", "programs.parse", "programs.validate",
    "programs.simulate",
    "jsonio.dumps",
    "synthesis.synthesize", "synthesis.verify",
    "switch.switch_unitary", "switch.apply_switch", "switch.measure_ancilla",
    "switch.channel", "switch.channel_n",
    "suites.run_suite",
)
MODULES = ("circuits", "lowering", "programs", "jsonio", "synthesis", "switch",
           "suites", "cli")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


# Host-speed calibration. Other tenants of the host change this machine's
# speed by up to 1.6x for seconds to minutes at a time (bench/README.md), so
# every timing is divided by the host's speed measured next to it, and reads
# as seconds at reference speed. In this process the speed is the time of a
# fixed loop of interpreter and small-numpy work, like most of the
# library's, over CAL_REF_S, its time on the reference machine at full
# speed. A child process's speed does not follow this process's loop
# (measured correlation -0.07) but does follow the wall time of a control
# child that starts Python and imports numpy (0.79), so each child is
# preceded by one control child, over CTRL_REF_S.
CAL_REF_S = 0.0012
CTRL_REF_S = 0.14
CTRL_ARGV = (sys.executable, "-c", "import numpy")
CAL_EVERY_S = 0.05   # calibrate between units at most this often
CAL_WINDOW_S = 0.5   # a unit's speed: calibrations this close to it


def calibrate() -> float:
    """Seconds taken by the fixed calibration loop right now.

    numpy is imported here, not at module level, so that set-up timing
    includes its import.
    """
    import numpy as np

    b = np.array([[1.0, 1j], [2.0, 3.0 - 1j]])
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += (i * i) % 7
    m = np.eye(4, dtype=complex)
    for _ in range(40):
        m = np.kron(b, b) @ m
    return time.perf_counter() - start


def run_child(argv, **kwargs) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run a control child, then ``argv``, each to exit, one at a time.

    Returns the raw wall time of ``argv``, the host speed from the control
    child, and the finished process.
    """
    start = time.perf_counter()
    subprocess.run(CTRL_ARGV, cwd=ROOT, capture_output=True, check=True,
                   timeout=CHILD_TIMEOUT_S)
    speed = (time.perf_counter() - start) / CTRL_REF_S
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                          timeout=CHILD_TIMEOUT_S, **kwargs)
    return time.perf_counter() - start, speed, proc


def setup(workload: str, seed: int):
    """Import the library, generate the seeded inputs and build the pool.

    Returns (seconds, modules, generated data, unit pool).
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    inputs = importlib.import_module("inputs")
    units = importlib.import_module("units")
    data = inputs.generate(workload, seed)
    pool = units.prepare(workload, data)
    return time.perf_counter() - start, (inputs, units), data, pool


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh child process, at reference speed."""
    _, speed, proc = run_child(
        [sys.executable, str(Path(__file__)), "--probe-setup", "--workload",
         workload, "--seed", str(seed)], env=child_env(), text=True, check=True)
    return float(proc.stdout.strip().splitlines()[-1]) / speed


def environment() -> dict:
    import numpy as np

    env = {"nproc": os.cpu_count(),
           "affinity_cpus": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "numpy": np.__version__,
           "machine": platform.machine(),
           "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ}}
    try:
        env["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        env["blas"] = "unknown"
    return env


class Loop:
    """Runs pool units back to back, times the pipeline, checks each output."""

    def __init__(self, workload: str, units, tracer):
        self.run, self.check = units.WORKLOADS[workload]
        self.units = units
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failed_by_module: dict[str, int] = {}
        self._next_unit = 0

    def one(self, u):
        """Run and check one unit; returns (latency seconds, output or None)."""
        tr = self.tracer
        tr.unit = self._next_unit
        self._next_unit += 1
        gate = self.units.Gate()
        out = None
        with tr.span("bench.unit"):
            start = time.perf_counter()
            try:
                out = self.run(tr, u)
            except Exception:
                gate.failures.append(("run", traceback.format_exc()))
            latency = time.perf_counter() - start
            if out is not None:
                try:
                    self.check(tr, u, out, gate)
                except Exception:
                    gate.failures.append(("check", traceback.format_exc()))
        tr.unit = None
        self.attempted += 1
        if not gate.passed:
            self.failed += 1
            for module in {m for m, _ in gate.failures}:
                self.failed_by_module[module] = self.failed_by_module.get(module, 0) + 1
            if self.failed <= 3:
                detail = gate.failures or [("bench", "unit checked nothing")]
                print(f"unit failed: {detail}", file=sys.stderr)
        return latency, out

    def passes(self, make_pool, seconds: float):
        """Whole passes until ``seconds`` of raw pipeline time have elapsed.

        ``make_pool(j)`` builds pass j's fresh inputs outside the timed
        region. The host is calibrated twice at the start and end of each
        pass and between units at most every CAL_EVERY_S. A unit's host speed
        is the median of the calibrations within CAL_WINDOW_S of it, and at
        least the two before and the two after it, over CAL_REF_S. Returns
        the latencies at reference speed, the raw latencies, each unit's
        speed, and the number of passes.
        """
        cal_at: list[float] = []
        cal_s: list[float] = []

        def cal():
            cal_s.append(calibrate())
            cal_at.append(time.perf_counter())

        raw: list[float] = []
        starts: list[float] = []
        passes = 0
        while passes == 0 or sum(raw) < seconds:
            pool = make_pool(passes + 1)
            cal()
            cal()
            for u in pool:
                starts.append(time.perf_counter())
                raw.append(self.one(u)[0])
                if time.perf_counter() - cal_at[-1] >= CAL_EVERY_S:
                    cal()
            cal()
            cal()
            passes += 1
        speeds = []
        for start, latency in zip(starts, raw):
            lo = bisect.bisect_left(cal_at, start - CAL_WINDOW_S)
            hi = bisect.bisect_right(cal_at, start + latency + CAL_WINDOW_S)
            lo = min(lo, bisect.bisect_right(cal_at, start) - 2)
            hi = max(hi, bisect.bisect_left(cal_at, start + latency) + 2)
            speeds.append(statistics.median(cal_s[lo:hi]) / CAL_REF_S)
        return [x / v for x, v in zip(raw, speeds)], raw, speeds, passes


def self_check(workload: str, seed: int, inputs, units, data, warm) -> list[str]:
    """Same seed, second generation: byte-identical inputs and programs."""
    problems = []
    again = inputs.generate(workload, seed)
    if inputs.digest(again) != inputs.digest(data):
        problems.append("second generation differs from the first")
    if workload in ("equivalence", "compile"):
        for i, (u, out) in enumerate(zip(again["units"], warm)):
            text = units.serialize_program(units.lower(units.parse_circuit(u["text"])))
            if out is None or text != out["text"]:
                problems.append(f"slot {i}: serialized program differs across generations")
    return problems


def run_cli(argv, expected, check, count: int, tracer, with_import: bool):
    """Start the CLI ``count`` times, one child at a time.

    Returns the command's wall times and, when ``with_import``, those of a
    bare ``import switchsynth`` started before each command (both at
    reference speed), plus a failure message per failed start.
    """
    env = child_env()
    walls: list[float] = []
    imports: list[float] = []
    failures: list[str] = []
    first = None
    command = [sys.executable, "-m", "switchsynth", *argv]
    for _ in range(count):
        if with_import:
            with tracer.span("cli.import"):
                wall, speed, proc = run_child(
                    [sys.executable, "-c", "import switchsynth"], env=env)
            imports.append(wall / speed)
            if proc.returncode != 0:
                failures.append(f"import exited {proc.returncode}")
        with tracer.span("cli.command"):
            wall, speed, proc = run_child(command, env=env)
        walls.append(wall / speed)
        stdout = proc.stdout.decode()
        if proc.returncode != 0:
            failures.append(f"exit {proc.returncode}: {proc.stderr.decode()[-500:]}")
            continue
        if first is None:
            first = stdout
        problem = check(stdout)
        if stdout != first:
            problem = "stdout differs between starts"
        elif expected is not None and stdout != expected:
            problem = "stdout differs from the in-process result"
        if problem:
            failures.append(problem)
    return walls, imports, failures


def tail(latencies: list[float], workload: str):
    """(value, percentile, samples beyond) at the workload's fixed percentile,
    stepping down the ladder only if fewer than ten samples lie beyond it."""
    import numpy as np

    lat = np.asarray(latencies)
    ladder = [p for p in TAIL_LADDER if p <= TAIL_PERCENTILE[workload]]
    for p in ladder:
        value = float(np.percentile(lat, p))
        beyond = int((lat > value).sum())
        if beyond >= 10:
            return value, p, beyond
    return value, ladder[-1], beyond


def per_pass_counts(workload: str, pool, warm, units) -> dict:
    counts = {"lowering.branch_runs": 0, "programs.instructions": 0,
              "programs.json_bytes": 0, "programs.matrix_refs_per_entry": 0.0,
              "switch.kraus_terms": 0}
    if workload in ("equivalence", "compile"):
        refs = entries = 0
        for u, out in zip(pool, warm):
            if out is None:
                continue
            doc = json.loads(out["text"])
            counts["programs.instructions"] += len(doc["instructions"])
            counts["programs.json_bytes"] += len(out["text"].encode())
            entries += len(doc["matrices"])
            refs += sum(key in inst for inst in doc["instructions"]
                        for key in ("matrix", "gate_a", "gate_b"))
            if workload == "equivalence":
                report = out["report"]
                counts["lowering.branch_runs"] += report.trials * report.branch_assignments
        counts["programs.matrix_refs_per_entry"] = refs / entries if entries else 0.0
    if workload == "channels":
        counts["switch.kraus_terms"] = sum(
            units.kraus_terms(u) * (2 if u["kind"] == "small" else 1)
            for u in pool if u["kind"] != "suite")
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "switchsynth" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2

    setup_s, (inputs, units), data, pool = setup(args.workload, args.seed)
    if args.probe_setup:
        print(repr(setup_s))
        return 0

    from tracing import Tracer

    traced = bool(args.trace)
    setup_samples = ([] if traced else
                     [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)])

    # warm-up pass: untimed and untraced, checked; its programs feed the
    # self-check and the per-pass counts
    warm_loop = Loop(args.workload, units, Tracer(False))
    warm = [warm_loop.one(u)[1] for u in pool]
    problems = self_check(args.workload, args.seed, inputs, units, data, warm)
    for problem in problems:
        print(f"self-check failed: {problem}", file=sys.stderr)

    tracer = Tracer(traced)
    loop = Loop(args.workload, units, tracer)
    latencies, raw, speeds, passes = loop.passes(
        lambda j: units.prepare(args.workload, inputs.generate(args.workload, args.seed, j)),
        args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    OUT.mkdir(exist_ok=True)
    cli_dir = OUT / f"cli-{args.workload}-seed{args.seed}"
    cli_dir.mkdir(exist_ok=True)
    cli_argv, expected, check = units.cli_case(args.workload, data, cli_dir)
    walls, imports, cli_failures = run_cli(cli_argv, expected, check, CLI_STARTS,
                                           tracer, with_import=traced)
    (OUT / f"latencies-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"latencies": latencies, "raw": raw, "speeds": speeds,
                    "cli": walls, "setup": setup_samples, "own_setup_raw": setup_s}))
    for failure in cli_failures[:3]:
        print(f"cli failed: {failure}", file=sys.stderr)

    attempted = warm_loop.attempted + loop.attempted + len(walls) + len(imports)
    failed = warm_loop.failed + loop.failed + len(cli_failures) + len(problems)
    failed_by_module = dict(loop.failed_by_module)
    for module, n in warm_loop.failed_by_module.items():
        failed_by_module[module] = failed_by_module.get(module, 0) + n
    failed_by_module["cli"] = failed_by_module.get("cli", 0) + len(cli_failures)

    ops_per_s = len(latencies) / sum(latencies)
    op_p50_s = statistics.median(latencies)
    tail_s, tail_p, tail_beyond = tail(latencies, args.workload)

    print(f"switchsynth bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"(closed loop, 1 caller, units back to back)")
    print("environment: " + json.dumps(environment()))
    print("generation: " + json.dumps({"seed": args.seed,
                                       **inputs.parameters(args.workload),
                                       "pool_units": len(pool),
                                       "inputs_sha256": inputs.digest(data)}))
    print(f"cli: switchsynth {' '.join(cli_argv)}")
    print(f"host speed: median {statistics.median(speeds):.3f}x reference over "
          f"{len(speeds)} units (min {min(speeds):.3f}, max {max(speeds):.3f}); "
          f"raw unit median {statistics.median(raw):.6g} s; own set-up raw "
          f"{setup_s:.6g} s")

    if traced:
        metrics = layer_metrics(args, tracer, speeds, passes, pool, warm, units,
                                failed_by_module, imports, walls,
                                ops_per_s, op_p50_s)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_s": (op_p50_s, "s"),
            "op_tail_s": (tail_s, "s"),
            "cli_p50_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{tail_p:g}: {tail_beyond} of {len(latencies)} samples beyond)"
        elif name == "setup_s":
            note = f"  (median of {len(setup_samples)} child set-ups)"
        elif name == "cli_p50_s":
            note = f"  (median of {len(walls)} starts)"
        print(f"  {name:40s} {value:.6g} {unit}{note}")
    print(f"  {'failed_frac':40s} {failed / attempted:.6g} 1  "
          f"({failed} of {attempted} attempted: {len(latencies)} timed units in "
          f"{passes} passes, {warm_loop.attempted} warm-up units, "
          f"{len(walls) + len(imports)} CLI starts, {len(problems)} self-check problems)")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def layer_metrics(args, tracer, speeds, passes, pool, warm, units,
                  failed_by_module, imports, walls, ops_per_s, op_p50_s) -> dict:
    """Per-layer metrics of a traced run: busy seconds and calls per pass over
    the pool (busy time divided by the run's median host speed), exact
    per-pass counts, median CLI start times, failures."""
    speed = statistics.median(speeds)
    summary = tracer.summary()
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYER_SPANS:
        row = summary.get(name, {"calls": 0, "busy_s": 0.0})
        metrics[f"{name}_s"] = (row["busy_s"] / speed / passes, "s")
        metrics[f"{name}_calls"] = (row["calls"] / passes, "count")
    for name, value in per_pass_counts(args.workload, pool, warm, units).items():
        metrics[name] = (value, "ratio" if name.endswith("per_entry") else
                         "B" if name.endswith("bytes") else "count")
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["cli.import_calls"] = (len(imports), "count")
    metrics["cli.command_s"] = (statistics.median(walls), "s")
    metrics["cli.command_calls"] = (len(walls), "count")
    unit_row = summary.get("bench.unit", {"self_s": 0.0})
    metrics["bench.unit_self_s"] = (unit_row["self_s"] / speed / passes, "s")
    metrics["bench.passes"] = (passes, "count")
    metrics["bench.host_speed"] = (speed, "ratio")
    metrics["traced.ops_per_s"] = (ops_per_s, "1/s")
    metrics["traced.op_p50_s"] = (op_p50_s, "s")
    for name, row in summary.items():
        module = name.split(".", 1)[0]
        if module in MODULES and row["failed"]:
            failed_by_module[module] = failed_by_module.get(module, 0) + row["failed"]
    for module in MODULES:
        metrics[f"{module}.failed"] = (failed_by_module.get(module, 0), "count")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
