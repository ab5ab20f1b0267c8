"""Tripartite correlators and the Mermin / Svetlichny inequality values.

A setting is six +-1 observables, one per party and input:
``((A0, A1), (B0, B1), (C0, C1))``, each a 2x2 array that squares to the
identity (the identity itself allowed). The two inequalities are fixed
sign combinations of correlators <A_x B_y C_z>. Their coefficient tables
live here so that the quantum evaluation (this module) and the
classical-bound enumeration share a single definition of each expression.

A state ``rho`` may carry leading batch axes (..., 8, 8), giving values of
the batch shape; the imaginary-residue guard reduces over the batch.
"""

from __future__ import annotations

import numpy as np

from .cmatrix import identity, kron

# ((x, y, z), coefficient) terms. Mermin sums the three single-excitation
# correlators minus the all-ones one; Svetlichny takes every correlator
# with +1 except A1B1C1 and A0B0C0.
MERMIN_TERMS = (
    ((1, 0, 0), 1),
    ((0, 1, 0), 1),
    ((0, 0, 1), 1),
    ((1, 1, 1), -1),
)
SVETLICHNY_TERMS = tuple(
    ((x, y, z), -1 if x == y == z else 1)
    for x in (0, 1)
    for y in (0, 1)
    for z in (0, 1)
)

# Classical bounds: fully-local models for Mermin, hybrid bipartition
# models for Svetlichny. Certified by enumeration in the lhvbound module.
MERMIN_CLASSICAL_BOUND = 2.0
SVETLICHNY_CLASSICAL_BOUND = 4.0

_IMAG_TOL = 1e-10


Settings = tuple[tuple[np.ndarray, np.ndarray], ...]  # ((A0, A1), (B0, B1), (C0, C1))


def check_settings(settings: Settings) -> Settings:
    """Return ``settings`` if each of its six observables is 2x2 and squares to I."""
    for party, pair in zip("abc", settings, strict=True):
        for x, o in zip((0, 1), pair, strict=True):
            if o.shape != (2, 2):
                raise ValueError(f"{party}{x} must be 2x2, got {o.shape}")
            if not np.max(np.abs(o @ o - identity(2))) <= 1e-12:
                raise ValueError(f"{party}{x} does not square to the identity")
    return settings


def expectation(rho: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """<A (x) B (x) C> on rho, one per batch member. Raises on an imaginary residue."""
    value = np.trace(rho @ kron(kron(a, b), c), axis1=-2, axis2=-1)
    residue = np.max(np.abs(value.imag))
    if not residue <= _IMAG_TOL:
        raise RuntimeError(
            f"correlator has imaginary part {residue:g}; "
            "an operator upstream is not Hermitian"
        )
    return value.real


def _inequality_value(rho, settings: Settings, terms):
    a, b, c = settings
    return sum(coeff * expectation(rho, a[x], b[y], c[z]) for (x, y, z), coeff in terms)


def mermin_value(rho: np.ndarray, settings: Settings):
    """Mermin combination; exceeds 2 only for standard tripartite nonlocality."""
    return _inequality_value(rho, settings, MERMIN_TERMS)


def svetlichny_value(rho: np.ndarray, settings: Settings):
    """Svetlichny combination; exceeds 4 only for genuine tripartite nonlocality."""
    return _inequality_value(rho, settings, SVETLICHNY_TERMS)
