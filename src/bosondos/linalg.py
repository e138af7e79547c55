"""Dense kernels: Hermitian eigenvalues, skew-symmetric spectra and PSD
Cholesky with a rounding-sized shift.

Thin contracts over the LAPACK routines exposed by numpy, on plain arrays:
``hermitian_eig`` returns the ascending eigenvalue array and
``cholesky_psd`` the pair (C, sigma).  The ascending +/- pairs of a real
skew-symmetric S come two ways: ``skew_spectrum`` reads them off one
singular value decomposition, with absolute error about eps * mu_max, and
takes singular S; ``skew_spectrum_gram`` reads them off one symmetric
eigensolve of S^T S, with error about eps * mu_max^2 / mu, at less than half
the cost, and hands S to the SVD when mu_min < 1e-3 * mu_max (an error bound
of about 5e2 * eps * mu_max).  The value added here is validation
(Hermiticity and finiteness on input, cone membership for the
factorization) and the diagonal shift for semidefinite matrices: a ladder
of a few multiples of eps * max A_ii, with no eigensolve.  Real input stays
in real arithmetic throughout.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotPsdError",
    "check_hermitian",
    "hermitian_eig",
    "skew_spectrum",
    "skew_spectrum_gram",
    "cholesky_psd",
]


class NotPsdError(np.linalg.LinAlgError):
    """The matrix is indefinite beyond the allowed semidefinite tolerance."""


HERMITIAN_TOL = 1e-12  # max |A - A^H| allowed, relative to max |A|
SHIFT_TOL = 1e-10  # largest Cholesky shift, relative to max A_ii


def _square(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def _real_even(S) -> np.ndarray:
    S = _square(S)
    if np.iscomplexobj(S) or S.shape[0] % 2:
        raise ValueError(
            f"expected a real matrix of even dimension, got {S.dtype} {S.shape}"
        )
    return S


def check_hermitian(A) -> np.ndarray:
    """Validate A = A^dagger within ``HERMITIAN_TOL`` relative, with every
    entry finite, and return the array."""
    A = _square(A)
    amax = float(np.abs(A).max(initial=0.0))
    # max propagates nan and inf; the residual test alone would pass nan
    if not np.isfinite(amax):
        raise ValueError("matrix has non-finite entries")
    scale = max(amax, np.finfo(float).tiny)
    resid = float(np.abs(A - A.conj().T).max(initial=0.0))
    if resid > HERMITIAN_TOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: max |A - A^H| = {resid:.3e} "
            f"exceeds {HERMITIAN_TOL:g} * max|A| = {HERMITIAN_TOL * scale:.3e}"
        )
    return A


def hermitian_eig(A) -> np.ndarray:
    """All-real ascending spectrum of a Hermitian matrix (LAPACK-backed)."""
    A = check_hermitian(A)
    try:
        return np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise np.linalg.LinAlgError(
            f"Hermitian eigensolver failed to converge on a "
            f"{A.shape[0]}x{A.shape[0]} matrix: {exc}"
        ) from exc


def skew_spectrum(S) -> np.ndarray:
    """Ascending spectrum of the Hermitian matrix i*S, S real skew-symmetric.

    The eigenvalues of i*S are +/- the singular values of S, which come in
    equal pairs; one ``svd`` without vectors gives them all, and each pair
    contributes one negative and one positive member, so the absolute values
    are the singular values exactly.  Skew symmetry is the caller's to
    guarantee (``spectrum_X`` builds S as T - T^T from a validated H); it is
    not checked again here.
    """
    S = _real_even(S)
    try:
        s = np.linalg.svd(S, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise np.linalg.LinAlgError(
            f"singular value decomposition failed to converge on a "
            f"{S.shape[0]}x{S.shape[0]} matrix: {exc}"
        ) from exc
    return np.concatenate((-s[::2], s[-1::-2]))


def skew_spectrum_gram(S) -> np.ndarray:
    """``skew_spectrum`` for a nonsingular S, from the Gram matrix S^T S.

    S^T S = -S^2 is symmetric positive definite, and its eigenvalues w are
    the squared singular values of S, each twice; one symmetric eigensolve
    costs less than half the SVD.  Squaring turns the SVD's absolute error of
    about eps * mu_max into about eps * mu_max^2 / mu, so when
    w_min <= 1e-6 * w_max (mu_min <= 1e-3 * mu_max, where that bound passes
    5e2 * eps * mu_max) the SVD route ``skew_spectrum`` takes S instead.
    S^T S is symmetric by construction and is not checked.
    """
    S = _real_even(S)
    try:
        w = np.linalg.eigvalsh(S.T @ S)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise np.linalg.LinAlgError(
            f"symmetric eigensolver failed to converge on a "
            f"{S.shape[0]}x{S.shape[0]} matrix: {exc}"
        ) from exc
    if not w[0] > 1e-6 * w[-1]:
        return skew_spectrum(S)
    mu = np.sqrt(w[1::2])
    return np.concatenate((-mu[::-1], mu))


def cholesky_psd(A):
    """Lower-triangular C and shift sigma with A + sigma*I = C C^dagger.

    The models keep A positive semidefinite, so a shift only has to absorb
    rounding, and a few eps * max A_ii are enough for that (Higham, 1990).
    sigma is the first of 0, eps, 1e2 * eps, 1e4 * eps and SHIFT_TOL, times
    max A_ii, at which the factorization succeeds; no eigensolve runs on
    that path.  A matrix that fails at every rung lies outside the stability
    cone, which signals a model bug upstream: :class:`NotPsdError` is raised
    with its minimum eigenvalue.
    """
    A = check_hermitian(A)
    scale = max(float(np.abs(A.diagonal()).max(initial=0.0)), np.finfo(float).tiny)
    eps = np.finfo(float).eps
    for sigma in (m * scale for m in (0.0, eps, 1e2 * eps, 1e4 * eps, SHIFT_TOL)):
        try:
            return np.linalg.cholesky(A + sigma * np.eye(len(A)) if sigma else A), sigma
        except np.linalg.LinAlgError:
            pass
    raise NotPsdError(
        f"matrix is not positive semidefinite: min eigenvalue "
        f"{np.linalg.eigvalsh(A)[0]:.3e}, and the factorization fails at the "
        f"largest shift {SHIFT_TOL:g} * max A_ii = {sigma:.3e}"
    )
