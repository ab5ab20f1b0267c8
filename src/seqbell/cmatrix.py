"""Kronecker product and structural predicates on small complex matrices.

Everything is a plain ``numpy.ndarray`` of dtype complex128, at most 8x8;
``kron`` skips ``np.kron``'s general-rank bookkeeping, costly at that size. The
predicates (hermiticity, idempotency) check what the rest of the package builds.

``kron`` also makes each product of two read-only operands once per process:
the kernel evaluates the same few fixed operators at every angle, and their
products are the same arithmetic each time. The memo holds at most
``MEMO_CAP`` products and only those of read-only operands, so any operator
that a caller may still change is multiplied afresh on every call;
``kron_memo`` lists what it holds.
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

# Most products the memo holds; past it, products are made but not stored. A
# full ``verify`` stores 48, and a scan adds none to its kind's.
MEMO_CAP = 256

# (id(a), id(b)) -> (a, b, a (x) b). An entry keeps its operands alive, so
# their ids cannot be reused while it is stored.
_MEMO: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _read_only(x: np.ndarray) -> bool:
    """x is read-only, and so is the array that owns its data, if another does."""
    base = x.base
    return not x.flags.writeable and (
        base is None or isinstance(base, np.ndarray) and not base.flags.writeable)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b of two matrices: the entrywise products of ``np.kron``.

    If each operand is read-only and owns its data or views a read-only base,
    the product is made on first use and the same array returned after. It is
    read-only and so is its base, so numpy refuses to make it writeable. Any
    other pair, and any new pair once ``MEMO_CAP`` products are stored, gets a
    fresh, writeable product. Freezing an operand promises that it no longer
    changes: while made writeable again it is multiplied afresh.
    """
    key = id(a), id(b)
    entry = _MEMO.get(key)
    if entry is not None and entry[0] is a and entry[1] is b and _read_only(a) and _read_only(b):
        return entry[2]
    (m, n), (p, q) = a.shape, b.shape
    product = (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)
    if entry is None and len(_MEMO) < MEMO_CAP and _read_only(a) and _read_only(b):
        product.base.flags.writeable = product.flags.writeable = False  # reshape made a view
        _MEMO[key] = a, b, product
    return product


def kron_memo() -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Every stored ``(a, b, a (x) b)`` of the ``kron`` memo, oldest first."""
    return tuple(_MEMO.values())


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
