import numpy as np
import pytest

from seqbell.cmatrix import is_hermitian, is_idempotent, kron
from seqbell.qstate import pauli

SX, SY, SZ = pauli("x"), pauli("y"), pauli("z")
I2 = np.eye(2, dtype=complex)


def brute_kron(a, b):
    """Entrywise definition: out[i*rb+k, j*cb+l] = a[i,j] * b[k,l]."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def random_cmatrix(rng, n=4):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def test_kron_identity_case():
    assert np.array_equal(kron(I2, I2), np.eye(4, dtype=complex))


def test_kron_antidiagonal_entry():
    assert kron(SX, SX)[0, 3] == 1


def test_kron_matches_entrywise_definition():
    # exact on the operator alphabet in use; within rounding on generic input
    for a in (SX, SY, SZ, I2):
        for b in (SX, SY, SZ, I2):
            assert np.array_equal(kron(a, b), brute_kron(a, b))
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    assert np.max(np.abs(kron(a, b) - brute_kron(a, b))) < 1e-14


def test_kron_equals_numpy_kron_bitwise():
    # the same entrywise products as np.kron, so kernel values stay bit for bit
    rng = np.random.default_rng(11)
    for (ra, ca), (rb, cb) in (((2, 2), (2, 2)), ((4, 4), (2, 2)), ((2, 3), (3, 2))):
        a = rng.normal(size=(ra, ca)) + 1j * rng.normal(size=(ra, ca))
        b = rng.normal(size=(rb, cb)) + 1j * rng.normal(size=(rb, cb))
        for x, y in ((a, b), (a.real, b), (a, np.eye(rb, dtype=complex))):
            got, want = kron(x, y), np.kron(x, y)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_triple_kron_flips_all_three_bits():
    # (sx (x) sx (x) sx) |000> = |111>, checked against the loop oracle
    xxx = brute_kron(brute_kron(SX, SX), SX)
    ket000 = np.zeros(8, dtype=complex)
    ket000[0] = 1
    ket111 = np.zeros(8, dtype=complex)
    ket111[7] = 1
    assert np.array_equal(xxx @ ket000, ket111)
    assert np.array_equal(kron(kron(SX, SX), SX), xxx)


def test_kron_associative():
    # exact on the operator alphabet this package uses
    alphabet = [SX, SY, SZ, I2]
    for a in alphabet:
        for b in alphabet:
            for c in alphabet:
                assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
    # and to rounding on generic matrices
    rng = np.random.default_rng(8)
    a, b, c = (random_cmatrix(rng, 2) for _ in range(3))
    assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) < 1e-14










def test_adjoint_distributes_over_kron():
    rng = np.random.default_rng(10)
    a, b = random_cmatrix(rng, 2), random_cmatrix(rng, 3)
    assert np.array_equal(kron(a, b).conj().T, kron(a.conj().T, b.conj().T))










def test_predicates():
    p = (I2 + SX) / 2
    assert is_idempotent(p)
    assert not is_idempotent(SX)
    assert is_hermitian(SY)
    assert not is_hermitian(1j * SX)
    with pytest.raises(ValueError):
        is_hermitian(np.ones((2, 3), dtype=complex))
