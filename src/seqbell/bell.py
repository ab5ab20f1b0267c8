"""Tripartite correlators and the Mermin / Svetlichny inequality values.

A setting is six +-1 observables ``((A0, A1), (B0, B1), (C0, C1))``, one per party and input,
each a 2x2 array that squares to the identity, the identity included. The inequalities are fixed
sign combinations of correlators <A_x B_y C_z>; ``lhvbound`` shares their coefficient tables.

A state ``rho`` may carry leading batch axes (..., 8, 8). ``expectation`` takes K correlators at
once and returns shape (..., K); the inequality values have the batch shape, and the
imaginary-residue guard reduces over both. Each correlator contracts the diagonal entries sum_j
rho_ij O_ji of rho O alone, with no (..., K, 8, 8) product, then adds them with the ``.sum``
that ``trace`` ran. The bits are the full product's only when each operator row has one nonzero
entry, as in every scenario setting; dense operators differ by rounding.
"""

from __future__ import annotations

import numpy as np

from .cmatrix import kron, stack

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
_COEFFS = {t: np.array([c for _, c in t], dtype=float) for t in (MERMIN_TERMS, SVETLICHNY_TERMS)}

# Classical bounds: fully-local models for Mermin, hybrid bipartition
# models for Svetlichny. Certified by enumeration in the lhvbound module.
MERMIN_CLASSICAL_BOUND = 2.0
SVETLICHNY_CLASSICAL_BOUND = 4.0

_IMAG_TOL = 1e-10


Settings = tuple[tuple[np.ndarray, np.ndarray], ...]  # ((A0, A1), (B0, B1), (C0, C1))


def expectation(rho: np.ndarray, a, b, c):
    """<A_k (x) B_k (x) C_k> on rho for equal-length sequences a, b, c: shape (..., K).

    Raises on an imaginary residue in any correlator of any batch member.
    """
    ops = stack([kron(kron(ak, bk), ck) for ak, bk, ck in zip(a, b, c, strict=True)])
    value = np.einsum("...ij,kji->...ki", rho, ops).sum(axis=-1)
    residue = abs(value.imag).max()
    if not residue <= _IMAG_TOL:
        raise RuntimeError(
            f"correlator has imaginary part {residue:g}; "
            "an operator upstream is not Hermitian"
        )
    return value.real


def _inequality_value(rho, settings: Settings, terms):
    """sum_k coeff_k <A_x B_y C_z>_k, added strictly left to right.

    ``np.add.accumulate`` adds in index order, as the term-by-term ``sum`` it
    replaces did; a plain ``.sum`` may add 8 terms pairwise and round
    differently. ``sum`` started from the integer 0, so a total of all -0.0
    terms read +0.0; the trailing ``+ 0.0`` keeps that and changes no other
    value.
    """
    a, b, c = settings
    values = expectation(rho, *zip(*[(a[x], b[y], c[z]) for (x, y, z), _ in terms]))
    return np.add.accumulate(values * _COEFFS[terms], axis=-1)[..., -1] + 0.0


def mermin_value(rho: np.ndarray, settings: Settings):
    """Mermin combination; exceeds 2 only for standard tripartite nonlocality."""
    return _inequality_value(rho, settings, MERMIN_TERMS)


def svetlichny_value(rho: np.ndarray, settings: Settings):
    """Svetlichny combination; exceeds 4 only for genuine tripartite nonlocality."""
    return _inequality_value(rho, settings, SVETLICHNY_TERMS)
