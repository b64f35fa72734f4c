import numpy as np
import pytest

from privcell.errors import ArgumentError, ShapeError
from privcell.linalg import (
    canonical_phase,
    frob_norm,
    hermitian_eig,
    observed_norms,
    pinv,
)


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def test_canonical_phase_largest_entry_real_positive(rng):
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    w = canonical_phase(v)
    i = np.argmax(np.abs(w))
    assert w[i].imag == pytest.approx(0.0, abs=1e-15)
    assert w[i].real > 0
    # only a global phase was applied
    np.testing.assert_allclose(np.abs(w), np.abs(v), rtol=1e-12)


def test_canonical_phase_zero_vector():
    v = np.zeros(3, dtype=complex)
    assert np.array_equal(canonical_phase(v), v)


def test_eig_identity():
    vals, vecs = hermitian_eig(np.eye(3), 1)
    assert (vals.shape, vecs.shape) == ((1,), (3, 1))
    assert vals[0] == pytest.approx(1.0)
    assert np.linalg.norm(vecs[:, 0]) == pytest.approx(1.0)


def test_eig_diagonal():
    vals, vecs = hermitian_eig(np.diag([3.0, 1.0]), 1)
    assert vals[0] == pytest.approx(3.0)
    np.testing.assert_allclose(np.abs(vecs[:, 0]), [1.0, 0.0], atol=1e-12)


def test_eig_reconstruction(rng):
    """Full decomposition reassembles the matrix."""
    a = random_hermitian(6, rng)
    vals, vecs = hermitian_eig(a, 6)
    np.testing.assert_allclose((vecs * vals) @ vecs.conj().T, a, atol=1e-8)
    assert vals.tolist() == sorted(vals, reverse=True)


def test_eig_vectors_orthonormal(rng):
    a = random_hermitian(5, rng)
    vecs = hermitian_eig(a, 5)[1]
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(5), atol=1e-10)


def test_eig_k_out_of_range():
    with pytest.raises(ArgumentError):
        hermitian_eig(np.eye(3), 4)
    with pytest.raises(ArgumentError):
        hermitian_eig(np.eye(3), 0)


def test_eig_rejects_nonsquare():
    with pytest.raises(ShapeError):
        hermitian_eig(np.zeros((2, 3)), 1)


def test_pinv_identity():
    np.testing.assert_allclose(pinv(np.eye(4)), np.eye(4), atol=1e-12)


def test_pinv_orthonormal_rows(rng):
    # orthonormal-row matrices invert by conjugate transposition
    q, _ = np.linalg.qr(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
    p = q.conj().T  # (2, 5), P P^H = I
    np.testing.assert_allclose(pinv(p), p.conj().T, atol=1e-10)


def test_pinv_full_column_rank(rng):
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    np.testing.assert_allclose(pinv(a) @ a, np.eye(2), atol=1e-8)


def test_pinv_rejects_empty_and_1d():
    with pytest.raises(ShapeError):
        pinv(np.zeros((0, 2)))
    with pytest.raises(ShapeError):
        pinv(np.zeros(3))


def test_norms_and_inner():
    assert frob_norm(np.zeros((4, 4))) == 0.0
    assert frob_norm(np.eye(9)) == pytest.approx(3.0)
    a = np.array([[1 + 1j, 2], [0, 1j]])
    # squared Frobenius norm is the trace inner product of a with itself
    assert frob_norm(a) ** 2 == pytest.approx(np.trace(a.conj().T @ a).real)


def test_masked_norm_and_mask(rng):
    a = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    mask = rng.random((2, 3, 4)) < 0.5
    got = observed_norms(a, mask)
    # one np.linalg.norm per AP over its observed entries, bit for bit
    assert got.tolist() == [np.linalg.norm(a[m][mask[m]]) for m in range(2)]
    # entries off the mask do not count
    np.testing.assert_array_equal(observed_norms(np.where(mask, a, 9.0), mask), got)
    with pytest.raises(ShapeError):
        observed_norms(a, mask[:, :, :2])


def test_observed_norms_split_by_ap_counts(rng):
    """The one gather is split at each AP's count: an AP with nothing observed reads 0.0,
    and every other AP its own np.linalg.norm, bit for bit."""
    a = rng.standard_normal((6, 4, 60)) + 1j * rng.standard_normal((6, 4, 60))
    mask = rng.random(a.shape) < 0.5
    mask[[0, 3]] = False
    mask[5] = True
    got = observed_norms(a, mask)
    assert got[0] == got[3] == 0.0
    assert got.tolist() == [np.linalg.norm(a[m][mask[m]]) for m in range(6)]
