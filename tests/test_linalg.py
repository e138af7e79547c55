import numpy as np
import pytest

from bosondos import NotPsdError, cholesky_psd, hermitian_eig
from bosondos.linalg import check_hermitian, skew_spectrum


def random_hermitian(n, rng):
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return B + B.conj().T


def test_identity_spectrum():
    assert np.allclose(hermitian_eig(np.eye(6)), 1.0)


def test_diagonal_spectrum_sorted():
    assert hermitian_eig(np.diag([3.0, -1.0, 2.0])) == pytest.approx([-1.0, 2.0, 3.0])


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(0)
    for _ in range(5):
        A = random_hermitian(12, rng)
        assert hermitian_eig(A).sum() == pytest.approx(np.trace(A).real, abs=1e-10)


def test_spectrum_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(1)
    A = random_hermitian(10, rng)
    Q, _ = np.linalg.qr(rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10)))
    B = Q @ A @ Q.conj().T
    wa = hermitian_eig(A)
    wb = hermitian_eig(B)
    assert np.allclose(wa, wb, atol=1e-10 * np.abs(wa).max())


def test_non_hermitian_rejected():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    check_hermitian(np.array([[1.0, 2.0], [2.0, 3.0]]))  # fine


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rejected(bad):
    # nan > tol is False, so a residual test alone would let these through
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eig(np.array([[1.0, bad], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        cholesky_psd(np.array([[1.0, 0.0], [0.0, bad]]))


def test_skew_spectrum_matches_hermitian_eig():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(10, 10))
    S = B - B.T
    mu = skew_spectrum(S)
    want = np.linalg.eigvalsh(1j * S)
    assert np.all(np.diff(mu) >= 0)
    assert np.abs(mu - want).max() <= 1e-13 * np.abs(want).max()
    # the absolute values are the singular values themselves
    assert np.array_equal(np.sort(np.abs(mu)), np.sort(np.linalg.svd(S, compute_uv=False)))


def test_skew_spectrum_rejects_complex_or_odd_input():
    with pytest.raises(ValueError, match="real matrix of even dimension"):
        skew_spectrum(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="real matrix of even dimension"):
        skew_spectrum(np.zeros((2, 2), dtype=complex))


def test_cholesky_identity():
    C, sigma = cholesky_psd(np.eye(4))
    assert sigma == 0.0
    assert np.allclose(C, np.eye(4))


def test_cholesky_reconstruction():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    C, sigma = cholesky_psd(A)
    assert sigma == 0.0
    assert np.abs(C @ C.conj().T - A).max() < 1e-14


def test_cholesky_semidefinite_boundary():
    # one exact zero eigenvalue, like the acoustic mode of the clean lattice
    shift_tol = 1e-10
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])  # eigenvalues {2, 0}
    C, sigma = cholesky_psd(A, shift_tol=shift_tol)
    norm = 2.0
    assert 0.0 <= sigma <= shift_tol * norm
    assert np.abs(C @ C.conj().T - (A + sigma * np.eye(2))).max() <= 1e-12 * norm


def test_cholesky_random_psd_with_kernel():
    rng = np.random.default_rng(3)
    B = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
    A = B @ B.conj().T  # rank 5, kernel dimension 3
    C, sigma = cholesky_psd(A)
    norm = np.linalg.norm(A, 2)
    assert sigma <= 1e-10 * norm
    assert np.abs(C @ C.conj().T - (A + sigma * np.eye(8))).max() <= 1e-12 * norm


def test_indefinite_rejected():
    with pytest.raises(NotPsdError, match="not positive semidefinite"):
        cholesky_psd(np.diag([1.0, -1.0]))
