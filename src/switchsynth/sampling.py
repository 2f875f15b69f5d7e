"""Seeded random sampling of states, unitaries, axes, and Kraus channels.

Everything takes an explicit ``numpy.random.Generator`` so callers own the
seed and results are reproducible. Each size is an int or a numpy integer
(not a bool) in its range, else a ValueError names it.
"""

from __future__ import annotations

import numpy as np

from .linalg import MAX_QUBITS, _is_integer
from .switch import KrausChannel


def _size(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as a plain int; raises ValueError, naming ``name``, unless it
    is ``_is_integer`` and from ``low`` to ``high`` (no upper bound if None)."""
    if not _is_integer(value) or value < low or (high is not None and value > high):
        bound = f"of at least {low}" if high is None else f"from {low} to {high}"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    dim = _size(dim, "dim", 1)
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
    dim = 2 ** _size(num_qubits, "num_qubits", 0, MAX_QUBITS)
    parts = rng.standard_normal((_size(count, "count", 0), 2, dim))
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
    dim = _size(dim, "dim", 1)
    return _wishart(rng.standard_normal((2, dim, dim)))


def random_kraus_channel(rng: np.random.Generator, dim: int = 2,
                         rank: int = 2) -> KrausChannel:
    """Random channel with the given Kraus rank."""
    dim, rank = _size(dim, "dim", 1), _size(rank, "rank", 1)
    return KrausChannel(tuple(_kraus_stack(rng, dim, rank)))


def _kraus_stack(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """``random_kraus_channel``'s (rank, dim, dim) operators, unchecked."""
    return _kraus_from(rng.standard_normal((2, rank * dim, dim)), rank)


# The two draw kernels take Gaussian parts, real at [..., 0, :, :] and
# imaginary at [..., 1, :, :], of one draw or of a stack of draws, each row
# bit for bit the one-item call, so a caller may draw many in one call.


def _kraus_from(parts: np.ndarray, rank: int) -> np.ndarray:
    """(..., rank, dim, dim) Kraus operators from (..., 2, rank*dim, dim)
    parts: QR orthonormalizes the columns of the stacked (rank*dim) x dim
    block, which is exactly the completeness condition."""
    q, _ = np.linalg.qr(parts[..., 0, :, :] + 1j * parts[..., 1, :, :])
    return q.reshape(*q.shape[:-2], rank, -1, q.shape[-1])


def _wishart(parts: np.ndarray) -> np.ndarray:
    """(..., dim, dim) normalized Wishart densities from (..., 2, dim, dim) parts."""
    g = parts[..., 0, :, :] + 1j * parts[..., 1, :, :]
    rho = g @ g.conj().mT
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
