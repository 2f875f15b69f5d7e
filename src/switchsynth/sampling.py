"""Seeded random sampling of states, unitaries, axes, and Kraus channels.

Everything takes an explicit ``numpy.random.Generator`` so callers own the
seed and results are reproducible.
"""

from __future__ import annotations

import numpy as np

from .switch import KrausChannel


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_states(rng: np.random.Generator, num_qubits: int,
                  count: int) -> np.ndarray:
    """``count`` uniformly random normalized states on num_qubits qubits, one
    per row.

    Each state takes its real parts, then its imaginary parts, from the
    stream, so drawing states one call at a time or all in one call gives
    the same bits. The norms sum the two real dot products that
    ``np.linalg.norm`` takes of a complex vector.
    """
    dim = 2 ** num_qubits
    parts = rng.standard_normal((count, 2, dim))
    v = parts[:, 0] + 1j * parts[:, 1]
    norms = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
    return v / norms[:, None]


def random_state(rng: np.random.Generator, num_qubits: int) -> np.ndarray:
    """Uniformly random normalized state on num_qubits qubits."""
    return random_states(rng, num_qubits, 1)[0]


def random_bloch(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random point on the Bloch sphere."""
    while True:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random density matrix (normalized Wishart)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_kraus_channel(rng: np.random.Generator, dim: int = 2,
                         rank: int = 2) -> KrausChannel:
    """Random channel with the given Kraus rank.

    Stacks the operators into a (rank*dim) x dim block and orthonormalizes
    the columns with QR, which is exactly the completeness condition.
    """
    g = (rng.standard_normal((rank * dim, dim))
         + 1j * rng.standard_normal((rank * dim, dim)))
    q, _ = np.linalg.qr(g)
    return KrausChannel(tuple(q[i * dim:(i + 1) * dim, :] for i in range(rank)))
