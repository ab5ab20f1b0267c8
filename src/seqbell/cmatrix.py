"""Kronecker product and structural predicates on small complex matrices.

Everything is a plain ``numpy.ndarray`` of dtype complex128, at most 8x8;
``kron`` skips ``np.kron``'s general-rank bookkeeping, costly at that size. The
predicates (hermiticity, idempotency) check what the rest of the package builds.
"""

from __future__ import annotations

import numpy as np

# Default tolerance for structural predicates. All quantities in this
# package are trigonometric in a single angle, so double precision leaves
# several orders of magnitude of headroom over this.
DEFAULT_TOL = 1e-12


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def zeros(n: int) -> np.ndarray:
    return np.zeros((n, n), dtype=complex)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b of two matrices: the entrywise products of ``np.kron``."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def _require_square(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Max-entry deviation from a = a^dagger is at most tol."""
    _require_square(a)
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def is_idempotent(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Max-entry deviation from a^2 = a is at most tol."""
    _require_square(a)
    return bool(np.max(np.abs(a @ a - a)) <= tol)
