"""Seeded input generation for the benchmark's workloads.

Everything here is plain numpy and text: the library is not imported, so
the inputs it receives are fixed by the seed alone. Circuits are emitted as
text so that ``parse_circuit`` stays on the timed path.

Each workload draws from a fixed *schedule* of slot shapes (qubit count,
controlled-gate count, channel sizes). The seed and the pass number pick
everything else: gate kinds, operands, angles, axes, states and Kraus
operators. Different seeds therefore ask for the same amount of work, which
keeps run-to-run spread down, while every seed and pass still exercises
fresh numbers.

Pool sizes and schedules are chosen so that the reported percentiles land
inside a group of slots of one shape rather than on the boundary between
slots of very different cost: every pool has an odd slot count, so p50 is
mid-slot; p75 of 25 equivalence slots falls in the k = 5 group and p75 of
15 compile slots in the 90-gate group; p99 of 49 channels slots falls in
the single heaviest slot.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

TWO_PI = 2.0 * math.pi

SINGLE_GATES = ("h", "x", "y", "z", "rx", "ry", "rz", "rn")
RANDOM_CONTROLLED = ("cu", "barenco")
PRESET_CONTROLLED = ("cnot", "cz")

# equivalence: (qubits, controlled gates) per slot, 25 slots, 2**k <= 2**8
# branch assignments so check_equivalence always enumerates every branch.
# Cost grows as 2**k, so the groups are sized for the percentiles: p50 falls
# mid k = 4 group (ranks 9-16), p75 mid k = 5 group (ranks 17-21), and one
# slot each of k = 6, 7, 8 forms the tail beyond.
EQUIVALENCE_SCHEDULE = (
    [(n, 1) for n in (2, 4)]
    + [(n, 2) for n in (2, 4, 6)]
    + [(n, 3) for n in (2, 3, 5, 6)]
    + [(n, 4) for n in (2, 3, 4, 5, 6, 3, 4, 5)]
    + [(n, 5) for n in (2, 3, 4, 5, 6)]
    + [(4, 6), (5, 7), (6, 8)]
)
EQUIVALENCE_TRIALS = 1
# the CLI leg's circuit: simulate --check-against at the same trial count
EQUIVALENCE_CLI_SHAPE = (3, 3)

# compile: (qubits, controlled gates) per slot, 15 slots; single-qubit gates
# are twice the controlled count; half the controlled gates are presets
COMPILE_SCHEDULE = (
    [(6, 50), (6, 55), (6, 60), (7, 60)]
    + [(7, 75)] * 6
    + [(8, 90)] * 3
    + [(8, 100)] * 2
)
COMPILE_CLI_SLOT = 4  # a (7, 75) slot, the median shape

# synth: 49 specs cycling through the four kinds; verify at a fixed count
SYNTH_KINDS = ("cnot", "cz", "barenco", "cu")
SYNTH_SLOTS = 49
SYNTH_VERIFY_TRIALS = 100

# channels: 40 small N = 2 cases (dim 2) checked in both forms, 8 large
# switch_channel_n cases, and one property-suite pass: 49 slots. The large
# cases keep the joint map at most 48 x 48 (N = 4 at dim 2, N = 3 at dim
# <= 4): OpenBLAS runs larger products (72 x 72, 96 x 96) on both vCPUs, and
# their time then follows the other vCPU's load, which no calibration in
# this process sees (ten-seed spread 0.21 ops/s, 0.32 tail with them).
CHANNEL_SMALL_RANKS = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 2), (2, 3),
                       (3, 3))
CHANNEL_SMALL_SLOTS = 40
CHANNEL_LARGE = (  # (dim, ranks); N = len(ranks)
    (2, (2, 2, 2)),
    (3, (3, 2, 1)),
    (4, (4, 1, 1)),
    (4, (2, 2, 2)),
    (3, (4, 2, 2)),
    (2, (2, 2, 1, 1)),
    (2, (4, 1, 1, 1)),
    (2, (2, 2, 2, 2)),
)
CHANNEL_SUITE_TRIALS = 20


def _angle(rng: np.random.Generator) -> float:
    return float(rng.uniform(-TWO_PI, TWO_PI))


def _axis(rng: np.random.Generator) -> tuple[float, float, float]:
    v = rng.standard_normal(3)
    v = v / np.linalg.norm(v)
    return (float(v[0]), float(v[1]), float(v[2]))


def _state(rng: np.random.Generator, num_qubits: int) -> np.ndarray:
    dim = 2 ** num_qubits
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _kraus(rng: np.random.Generator, dim: int, rank: int) -> tuple[np.ndarray, ...]:
    # orthonormal columns of a stacked (rank*dim) x dim block = completeness
    g = (rng.standard_normal((rank * dim, dim))
         + 1j * rng.standard_normal((rank * dim, dim)))
    q, _ = np.linalg.qr(g)
    return tuple(q[i * dim:(i + 1) * dim, :] for i in range(rank))


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31))


def _single_gate(rng: np.random.Generator, n: int) -> str:
    name = SINGLE_GATES[rng.integers(len(SINGLE_GATES))]
    q = int(rng.integers(n))
    if name in ("rx", "ry", "rz"):
        return f"{name} {q} theta={_angle(rng)!r}"
    if name == "rn":
        nx, ny, nz = _axis(rng)
        return f"rn {q} theta={_angle(rng)!r} nx={nx!r} ny={ny!r} nz={nz!r}"
    return f"{name} {q}"


def _controlled_gate(rng: np.random.Generator, n: int, name: str) -> str:
    c, t = (int(q) for q in rng.choice(n, size=2, replace=False))
    if name == "cu":
        nx, ny, nz = _axis(rng)
        return (f"cu {c} {t} alpha={_angle(rng)!r} theta={_angle(rng)!r} "
                f"nx={nx!r} ny={ny!r} nz={nz!r}")
    if name == "barenco":
        return (f"barenco {c} {t} alpha={_angle(rng)!r} phi={_angle(rng)!r} "
                f"theta={_angle(rng)!r}")
    return f"{name} {c} {t}"


def circuit_text(rng: np.random.Generator, n: int, k: int,
                 controlled: list[str]) -> str:
    """Circuit on n qubits: the k given controlled gates plus 2k single-qubit
    gates, in a seeded order."""
    kinds = ["c"] * k + ["s"] * (2 * k)
    rng.shuffle(kinds)
    names = iter(controlled)
    lines = [f"qubits {n}"]
    for kind in kinds:
        lines.append(_controlled_gate(rng, n, next(names)) if kind == "c"
                     else _single_gate(rng, n))
    return "\n".join(lines) + "\n"


def _circuit_slot(rng, n: int, k: int, controlled: list[str]) -> dict:
    return {"qubits": n, "controlled": k,
            "text": circuit_text(rng, n, k, controlled),
            "psi": _state(rng, n), "seed": _seed(rng)}


def equivalence(seed: int, pass_: int) -> dict:
    rng = np.random.default_rng([seed, 1, pass_])
    every = list(PRESET_CONTROLLED + RANDOM_CONTROLLED)

    def slot(n, k):
        return _circuit_slot(rng, n, k,
                             [every[i] for i in rng.integers(len(every), size=k)])

    n, k = EQUIVALENCE_CLI_SHAPE
    return {"units": [slot(n, k) for n, k in EQUIVALENCE_SCHEDULE],
            "trials": EQUIVALENCE_TRIALS,
            "cli": slot(n, k)}


def compile_(seed: int, pass_: int) -> dict:
    rng = np.random.default_rng([seed, 2, pass_])
    units = []
    for n, k in COMPILE_SCHEDULE:
        presets = k // 2
        names = ([PRESET_CONTROLLED[i] for i in rng.integers(2, size=presets)]
                 + [RANDOM_CONTROLLED[i] for i in rng.integers(2, size=k - presets)])
        rng.shuffle(names)
        units.append(_circuit_slot(rng, n, k, names))
    return {"units": units, "cli": units[COMPILE_CLI_SLOT]}


def _spec(rng: np.random.Generator, kind: str) -> dict:
    if kind == "cu":
        return {"kind": "cu", "alpha": _angle(rng), "theta": _angle(rng),
                "axis": _axis(rng)}
    if kind == "barenco":
        return {"kind": "barenco", "alpha": _angle(rng), "phi": _angle(rng),
                "theta": _angle(rng)}
    return {"kind": kind}


def synth(seed: int, pass_: int) -> dict:
    rng = np.random.default_rng([seed, 3, pass_])
    units = [{"spec": _spec(rng, SYNTH_KINDS[i % len(SYNTH_KINDS)]),
              "psi": _state(rng, 2), "seed": _seed(rng)}
             for i in range(SYNTH_SLOTS)]
    return {"units": units, "trials": SYNTH_VERIFY_TRIALS,
            "cli": {"spec": _spec(rng, "cu"), "seed": _seed(rng)}}


def channels(seed: int, pass_: int) -> dict:
    rng = np.random.default_rng([seed, 4, pass_])
    units = []
    for i in range(CHANNEL_SMALL_SLOTS):
        ranks = CHANNEL_SMALL_RANKS[i % len(CHANNEL_SMALL_RANKS)]
        units.append({"kind": "small", "dim": 2, "ranks": ranks,
                      "kraus": [_kraus(rng, 2, r) for r in ranks],
                      "rho": _density(rng, 2), "omega": _density(rng, 2)})
    for dim, ranks in CHANNEL_LARGE:
        units.append({"kind": "large", "dim": dim, "ranks": ranks,
                      "kraus": [_kraus(rng, dim, r) for r in ranks],
                      "rho": _density(rng, dim)})
    suite_seed = _seed(rng)
    units.append({"kind": "suite", "trials": CHANNEL_SUITE_TRIALS,
                  "seed": suite_seed})
    return {"units": units,
            "cli": {"trials": CHANNEL_SUITE_TRIALS, "seed": suite_seed}}


GENERATORS = {"equivalence": equivalence, "compile": compile_, "synth": synth,
              "channels": channels}


def generate(workload: str, seed: int, pass_: int = 0) -> dict:
    """Inputs of one pass over the workload's slots.

    Every pass draws fresh numbers for the same slot shapes, so a library
    cache or memo is helped only by what real inputs repeat (the cnot/cz
    presets), not by the benchmark replaying one pass.
    """
    return GENERATORS[workload](seed, pass_)


def parameters(workload: str) -> dict:
    """Every generation parameter of a workload, for the run's output."""
    if workload == "equivalence":
        return {"schedule_qubits_controlled": EQUIVALENCE_SCHEDULE,
                "single_qubit_gates_per_controlled": 2,
                "controlled_kinds": PRESET_CONTROLLED + RANDOM_CONTROLLED,
                "trials": EQUIVALENCE_TRIALS,
                "cli_shape_qubits_controlled": EQUIVALENCE_CLI_SHAPE}
    if workload == "compile":
        return {"schedule_qubits_controlled": COMPILE_SCHEDULE,
                "single_qubit_gates_per_controlled": 2,
                "preset_share": "floor(k/2) of k, kinds " + "/".join(PRESET_CONTROLLED),
                "random_kinds": RANDOM_CONTROLLED,
                "cli_slot": COMPILE_CLI_SLOT}
    if workload == "synth":
        return {"slots": SYNTH_SLOTS, "kinds_cycled": SYNTH_KINDS,
                "verify_trials": SYNTH_VERIFY_TRIALS}
    return {"small_slots": CHANNEL_SMALL_SLOTS, "small_dim": 2,
            "small_ranks_cycled": CHANNEL_SMALL_RANKS,
            "large_dim_ranks": CHANNEL_LARGE,
            "suite_trials": CHANNEL_SUITE_TRIALS}


def digest(obj) -> str:
    """SHA-256 over a canonical byte encoding of generated inputs."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            h.update(b"{")
            for key in sorted(x):
                h.update(key.encode() + b":")
                feed(x[key])
            h.update(b"}")
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for el in x:
                feed(el)
                h.update(b",")
            h.update(b"]")
        elif isinstance(x, np.ndarray):
            h.update(repr((x.dtype.str, x.shape)).encode() + x.tobytes())
        elif isinstance(x, (str, int, float)):
            h.update(f"{type(x).__name__}={x!r};".encode())
        else:
            raise TypeError(f"cannot digest {type(x).__name__}")

    feed(obj)
    return h.hexdigest()
