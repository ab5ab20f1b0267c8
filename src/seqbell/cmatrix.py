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

# Read-only identities; copy one for a fresh, writable array.
EYE2, EYE4 = np.eye(2, dtype=complex), np.eye(4, dtype=complex)
EYE2.flags.writeable = EYE4.flags.writeable = False


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b of two matrices: the entrywise products of ``np.kron``."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def _require_square(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")


def is_hermitian(a: np.ndarray) -> bool:
    """Max-entry deviation from a = a^dagger is at most DEFAULT_TOL."""
    _require_square(a)
    return bool(np.abs(a - a.conj().T).max() <= DEFAULT_TOL)


def is_idempotent(a: np.ndarray) -> bool:
    """Max-entry deviation from a^2 = a is at most DEFAULT_TOL."""
    _require_square(a)
    return bool(np.abs(a @ a - a).max() <= DEFAULT_TOL)
