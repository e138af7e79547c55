import numpy as np
import pytest

from bosondos import ModelParams, NotPsdError
from bosondos.ensemble import draw_sample
from bosondos.linalg import (
    HERMITIAN_TOL,
    SHIFT_TOL,
    check_hermitian,
    cholesky_psd,
    gram_spectrum,
    hermitian_eig,
    skew_spectrum,
)
from clean_model import fresh_H


def random_symmetric(n, rng):
    B = rng.normal(size=(n, n))
    return B + B.T


def test_identity_spectrum():
    assert np.allclose(hermitian_eig(np.eye(6)), 1.0)


def test_diagonal_spectrum_sorted():
    assert hermitian_eig(np.diag([3.0, -1.0, 2.0])) == pytest.approx([-1.0, 2.0, 3.0])


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(0)
    for _ in range(5):
        A = random_symmetric(12, rng)
        assert hermitian_eig(A).sum() == pytest.approx(np.trace(A), abs=1e-10)


def test_spectrum_invariant_under_unitary_conjugation():
    # the real unitary matrices are the orthogonal ones
    rng = np.random.default_rng(1)
    A = random_symmetric(10, rng)
    Q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
    B = Q @ A @ Q.T
    wa = hermitian_eig(A)
    wb = hermitian_eig(B)
    assert np.allclose(wa, wb, atol=1e-10 * np.abs(wa).max())


def test_non_hermitian_rejected():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    check_hermitian(np.array([[1.0, 2.0], [2.0, 3.0]]))  # fine


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_non_square_rejected(shape):
    with pytest.raises(ValueError, match="expected a square matrix"):
        check_hermitian(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rejected(bad):
    # nan > tol is False, so a residual test alone would let these through
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eig(np.array([[1.0, bad], [0.0, 1.0]]))


def symmetric_unit_scale(n):
    """A random symmetric matrix with max |A| = 1 at A[2, 2] = -1, so the
    scale comes from min A."""
    rng = np.random.default_rng(n)
    A = rng.uniform(-0.25, 0.25, size=(n, n))
    A = A + A.T
    A[2, 2] = -1.0
    return A


# dimensions that are not a multiple of check_hermitian's row block; the
# pairs planted in the first block, and in the last, partial, one
ODD_DIMS = [42, 70, 130]
PLANTS = ["first", "first-row-last-column", "last"]


def planted(n, where):
    return {"first": (1, 5), "first-row-last-column": (0, n - 1),
            "last": (n - 1, n - 2)}[where]


@pytest.mark.parametrize("where", PLANTS)
@pytest.mark.parametrize("n", ODD_DIMS)
def test_asymmetry_just_past_the_tolerance_rejected(n, where):
    A = symmetric_unit_scale(n)
    i, j = planted(n, where)
    tol = HERMITIAN_TOL * np.abs(A).max()
    A[i, j], A[j, i] = tol, 0.0
    assert check_hermitian(A) is A
    A[i, j] = np.nextafter(tol, np.inf)
    with pytest.raises(ValueError, match="not Hermitian"):
        check_hermitian(A)
    A[i, j], A[j, i] = 0.0, np.nextafter(tol, np.inf)
    with pytest.raises(ValueError, match="not Hermitian"):
        check_hermitian(A)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", PLANTS)
@pytest.mark.parametrize("n", ODD_DIMS)
def test_non_finite_rejected_in_any_block(n, where, bad):
    # symmetric, so only the finiteness test can catch it
    A = symmetric_unit_scale(n)
    i, j = planted(n, where)
    A[i, j] = A[j, i] = bad
    with pytest.raises(ValueError, match="non-finite"):
        check_hermitian(A)


def test_complex_matrix_rejected():
    # the oracle's H is real: a complex matrix, even a Hermitian one or one
    # whose imaginary parts all vanish, is refused
    rng = np.random.default_rng(4)
    B = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    for A in (B + B.conj().T, np.eye(6, dtype=complex)):
        with pytest.raises(ValueError, match="real matrix, got dtype complex128"):
            check_hermitian(A)
        with pytest.raises(ValueError, match="expected a real matrix"):
            hermitian_eig(A)
        # factoring A^T would give the factor of conj(A)
        with pytest.raises(ValueError, match="expected a real matrix"):
            cholesky_psd(A + 6.0 * np.eye(6))


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


def gram_route(S):
    """``gram_spectrum`` of S, from one product S^T S."""
    return gram_spectrum(S.T @ S, lambda: S)


def rotated_skew(mus, rng):
    """Q (D - D^T) Q^T with D = diag(mus) x [[0, 1], [0, 0]]: exactly skew,
    with frequencies +/- mus."""
    D = np.kron(np.diag(mus), [[0.0, 1.0], [0.0, 0.0]])
    Q, _ = np.linalg.qr(rng.normal(size=D.shape))
    A = Q @ D @ Q.T
    return A - A.T


def test_gram_spectrum_matches_svd_route():
    rng = np.random.default_rng(6)
    for mus in (rng.uniform(0.1, 2.0, size=6), [1.0, 0.5, 1.01e-3]):
        S = rotated_skew(mus, rng)
        mu = gram_route(S)
        want = skew_spectrum(S)
        assert np.all(np.diff(mu) >= 0)
        assert np.array_equal(mu, -mu[::-1])
        assert np.abs(mu - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(mu[len(mus):] - np.sort(mus)).max() <= 1e-12 * max(mus)


def test_gram_spectrum_builds_S_only_to_hand_it_to_the_svd():
    rng = np.random.default_rng(11)
    for mus, handed in (([1.0, 0.5, 0.25], False), ([1.0, 0.5, 1e-4], True)):
        S = rotated_skew(mus, rng)
        built = []
        mu = gram_spectrum(S.T @ S, lambda: built.append(S) or S)
        assert len(built) == handed
        want = skew_spectrum(S)
        if handed:
            assert np.array_equal(mu, want)
        else:
            assert np.abs(mu - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("pairs, mu_min", [(3, 0.25), (40, 0.1), (3, 1e-4)],
                         ids=["gram", "gram-80", "svd"])
def test_gram_spectrum_reads_only_the_upper_triangle(pairs, mu_min):
    # the p-first route keeps a block of S below the Gram matrix's diagonal
    rng = np.random.default_rng(5)
    S = rotated_skew(rng.uniform(mu_min, 1.0, size=pairs - 1).tolist() + [mu_min], rng)
    G = S.T @ S
    want = gram_spectrum(G.copy(), lambda: S)
    G[np.tril_indices(len(G), -1)] = rng.normal(size=len(G) * (len(G) - 1) // 2)
    assert np.array_equal(gram_spectrum(G, lambda: S), want)


@pytest.mark.parametrize("mu_min", [0.0, 1e-9, 1e-4, 0.99e-3])
def test_gram_spectrum_hands_ill_conditioned_S_to_the_svd(mu_min):
    # mu_min < 1e-3 mu_max: squares would lose too much, the SVD answers
    S = rotated_skew([1.0, 0.5, mu_min], np.random.default_rng(7))
    assert np.array_equal(gram_route(S), skew_spectrum(S))


def shift_ladder(A):
    """The shifts ``cholesky_psd`` tries, in order."""
    eps = np.finfo(float).eps
    scale = np.abs(A.diagonal()).max()
    return [m * scale for m in (0.0, eps, 1e2 * eps, 1e4 * eps, SHIFT_TOL)]


def test_cholesky_identity():
    C, sigma = cholesky_psd(np.eye(4))
    assert sigma == 0.0
    assert np.allclose(C, np.eye(4))


def test_cholesky_reconstruction(monkeypatch):
    # a definite A takes no shift and one factorization, of the transposed
    # view of A itself, which LAPACK reads without a transpose copy
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    calls, factor = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda B: calls.append(B) or factor(B))
    C, sigma = cholesky_psd(A)
    assert sigma == 0.0
    assert len(calls) == 1 and calls[0].base is A and calls[0].flags.f_contiguous
    assert np.abs(C @ C.T - A).max() < 1e-14


def test_cholesky_of_a_real_matrix_symmetric_within_the_tolerance():
    # the factor is that of A^T, which differs from A by at most the
    # asymmetry check_hermitian lets through
    rng = np.random.default_rng(8)
    B = rng.normal(size=(12, 12))
    A = B @ B.T + 12.0 * np.eye(12)
    scale = np.abs(A).max()
    A += np.triu(0.5 * HERMITIAN_TOL * scale * rng.uniform(-1.0, 1.0, size=A.shape), 1)
    assert not np.array_equal(A, A.T)
    C, sigma = cholesky_psd(A)
    assert sigma == 0.0 and np.array_equal(C, np.tril(C))
    assert np.abs(C @ C.T - A).max() <= (HERMITIAN_TOL + 1e-14) * scale


def test_cholesky_semidefinite_boundary():
    # one exact zero eigenvalue, like the acoustic mode of the clean lattice
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])  # eigenvalues {2, 0}
    C, sigma = cholesky_psd(A)
    norm = 2.0
    assert 0.0 <= sigma <= SHIFT_TOL * norm
    assert np.abs(C @ C.T - (A + sigma * np.eye(2))).max() <= 1e-12 * norm


def test_cholesky_random_psd_with_kernel():
    rng = np.random.default_rng(3)
    B = rng.normal(size=(8, 5))
    A = B @ B.T  # rank 5, kernel dimension 3
    C, sigma = cholesky_psd(A)
    norm = np.linalg.norm(A, 2)
    assert sigma <= 1e-10 * norm
    assert np.abs(C @ C.T - (A + sigma * np.eye(8))).max() <= 1e-12 * norm
    # sigma is the first rung of the shift ladder that factors
    ladder = shift_ladder(A)
    assert sigma in ladder[1:]
    for below in ladder[:ladder.index(sigma)]:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(A + below * np.eye(8))


def test_indefinite_rejected():
    with pytest.raises(NotPsdError, match="not positive semidefinite"):
        cholesky_psd(np.diag([1.0, -1.0]))


def test_flat_band_H_factors_without_an_eigensolve(monkeypatch):
    # the mc-flat shape: H has rank M = 12 < 2N = 16
    params = ModelParams(a=0.75, N=8, M=12, b=1.0, nu=0.0)
    H = draw_sample(params, np.random.SeedSequence(0), fresh_H(params))

    def refuse(*args, **kwargs):
        raise AssertionError("cholesky_psd ran an eigensolve on a PSD matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    C, sigma = cholesky_psd(H)
    assert 0.0 < sigma <= SHIFT_TOL * H.diagonal().max()
    assert np.abs(C @ C.T - (H + sigma * np.eye(16))).max() <= 1e-12 * H.diagonal().max()


def test_top_rung_bounds_the_accepted_negative_eigenvalue():
    # max A_ii = 2; the top rung lifts lambda_min by SHIFT_TOL * 2
    A = np.diag([2.0, 1.0, -0.5 * SHIFT_TOL * 2.0])
    C, sigma = cholesky_psd(A)
    assert sigma == shift_ladder(A)[-1]
    assert C[2, 2] ** 2 == pytest.approx(A[2, 2] + sigma)
    lam = -2.0 * SHIFT_TOL * 2.0
    with pytest.raises(NotPsdError, match=f"min eigenvalue {lam:.3e}"):
        cholesky_psd(np.diag([2.0, 1.0, lam]))
