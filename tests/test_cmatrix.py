import numpy as np
import pytest

from seqbell import cmatrix
from seqbell.cmatrix import EYE2, constant, is_hermitian, is_idempotent, kron, kron_memo
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


def test_predicates_and_kron_on_stacks():
    rng = np.random.default_rng(14)
    stack = np.stack([(I2 + SX) / 2, (I2 - SZ) / 2, I2])
    assert is_hermitian(stack) and is_idempotent(stack)
    for bad in (SX, np.full((2, 2), np.nan)):  # one member not idempotent, or NaN
        members = stack.copy()
        members[1] = bad
        assert not is_idempotent(members)
    members[1] = 1j * SX
    assert not is_hermitian(members)
    with pytest.raises(ValueError):
        is_idempotent(np.ones((3, 2, 3), dtype=complex))
    b = np.stack([random_cmatrix(rng, 2) for _ in range(3)])
    for a in (EYE2, random_cmatrix(rng, 4)):
        assert kron(a, b).tobytes() == np.stack([np.kron(a, m) for m in b]).tobytes()


def frozen(x):
    """A read-only complex array that owns its data, not registered."""
    x = np.array(x, dtype=complex)
    x.flags.writeable = False
    return x


def registered(x):
    """A registered complex constant that owns its data."""
    return constant(np.array(x, dtype=complex))


@pytest.fixture
def memo(monkeypatch):
    """An empty kron memo and a private registry; the process's own are put back after."""
    monkeypatch.setattr(cmatrix, "_MEMO", {})
    monkeypatch.setattr(cmatrix, "_CONSTANTS", dict(cmatrix._CONSTANTS))


class TestMemo:
    """kron makes each product of registered constants once, and no other product twice."""

    def test_read_only_operands_give_one_read_only_product(self, memo):
        rng = np.random.default_rng(12)
        a, b = registered(random_cmatrix(rng, 2)), registered(random_cmatrix(rng, 4))
        product = kron(a, b)
        assert product.tobytes() == np.kron(a, b).tobytes() and product.shape == (8, 8)
        assert kron(a, b) is product
        assert [tuple(map(id, entry)) for entry in kron_memo()] == [(id(a), id(b), id(product))]
        with pytest.raises(ValueError):
            product.flags.writeable = True
        with pytest.raises(ValueError):
            product[0, 0] = 0.0

    def test_a_stored_product_is_a_read_only_operand(self, memo):
        a, b, c = registered(SX), registered(SY), EYE2
        abc = kron(kron(a, b), c)
        assert abc.tobytes() == np.kron(np.kron(SX, SY), I2).tobytes()
        assert kron(kron(a, b), c) is abc and len(kron_memo()) == 2

    def test_changing_a_writeable_operand_changes_the_product(self, memo):
        rng = np.random.default_rng(13)
        a, b = random_cmatrix(rng, 2), registered(random_cmatrix(rng, 2))
        before, before_flipped = kron(a, b), kron(b, a)
        a[0, 1] += 1.0
        after, after_flipped = kron(a, b), kron(b, a)
        assert not np.array_equal(before, after) and not np.array_equal(before_flipped, after_flipped)
        assert after.tobytes() == np.kron(a, b).tobytes()
        assert after_flipped.tobytes() == np.kron(b, a).tobytes()
        assert after.flags.writeable and kron_memo() == ()

    def test_frozen_but_unregistered_operand_is_multiplied_afresh(self, memo):
        a, b = frozen(SX), registered(SZ)
        first, flipped = kron(a, b), kron(b, a)
        assert kron(a, b) is not first and kron(b, a) is not flipped
        assert first.tobytes() == np.kron(SX, SZ).tobytes() and first.flags.writeable
        assert kron_memo() == ()

    def test_a_registered_view_freezes_the_array_it_reads(self, memo):
        base = np.zeros((3, 3), dtype=complex)
        view = base[:2, :2]
        assert constant(view) is view and cmatrix._CONSTANTS[id(view)] is view
        for x in (view, base):
            with pytest.raises(ValueError):
                x[0, 0] = 1.0
        with pytest.raises(ValueError):
            view.flags.writeable = True
