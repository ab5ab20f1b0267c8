"""Kronecker product and structural predicates on small complex matrices.

Everything is a plain ``numpy.ndarray`` of dtype complex128, at most 8x8;
``kron`` skips ``np.kron``'s general-rank bookkeeping, costly at that size. The
predicates (hermiticity, idempotency) check what the rest of the package builds,
a stack (..., n, n) as a whole: every member must pass, and NaN fails.

``kron`` also makes each product of two registered constants once per process: the kernel
evaluates the same few fixed operators at every angle, and their products are the same
arithmetic each time. ``constant`` registers an array once it is built; ``kron_memo`` lists
the products made so far. The memo stays until the CLI scan is batched: without it, a per-angle
500x500 scan took 0.156 s, not 0.078 s (genuine: 0.192, not 0.087; in process, 2-CPU x86-64).
"""

from __future__ import annotations

import numpy as np

# Default tolerance for structural predicates. All quantities in this
# package are trigonometric in a single angle, so double precision leaves
# several orders of magnitude of headroom over this.
DEFAULT_TOL = 1e-12

# id(x) -> x for each registered constant; holding x keeps its id from being reused.
_CONSTANTS: dict[int, np.ndarray] = {}

# (id(a), id(b)) -> (a, b, a (x) b) for two registered constants a and b.
_MEMO: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def constant(x: np.ndarray) -> np.ndarray:
    """Make ``x`` read-only, and the array whose data it views; register it as unchanging."""
    if isinstance(x.base, np.ndarray):
        x.base.flags.writeable = False
    x.flags.writeable = False
    _CONSTANTS[id(x)] = x
    return x


# Registered identities; copy one for a fresh, writable array.
EYE2, EYE4 = constant(np.eye(2, dtype=complex)), constant(np.eye(4, dtype=complex))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b, per member of a stack b: the entrywise products of ``np.kron``.

    The product of two registered constants is made on first use, registered
    and returned again after; any other pair gets a fresh, writeable product.
    """
    key = id(a), id(b)
    entry = _MEMO.get(key)
    if entry is not None:
        return entry[2]
    (m, n), (p, q) = a.shape, b.shape[-2:]
    product = (a[:, None, :, None] * b[..., None, :, None, :]).reshape(*b.shape[:-2], m * p, n * q)
    if id(a) in _CONSTANTS and id(b) in _CONSTANTS:
        _MEMO[key] = a, b, constant(product)
    return product


def kron_memo() -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Every stored ``(a, b, a (x) b)`` of the ``kron`` memo, oldest first."""
    return tuple(_MEMO.values())


def _require_square(a: np.ndarray) -> None:
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")


def is_hermitian(a: np.ndarray) -> bool:
    """Max-entry deviation from a = a^dagger is at most DEFAULT_TOL."""
    _require_square(a)
    return bool(np.abs(a - a.conj().swapaxes(-1, -2)).max() <= DEFAULT_TOL)


def is_idempotent(a: np.ndarray) -> bool:
    """Max-entry deviation from a^2 = a is at most DEFAULT_TOL."""
    _require_square(a)
    return bool(np.abs(a @ a - a).max() <= DEFAULT_TOL)
