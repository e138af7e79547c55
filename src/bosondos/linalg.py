"""Dense kernels: Hermitian eigenvalues, skew-symmetric spectra and PSD
Cholesky with minimal shift.

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
factorization) and the minimal-diagonal-shift policy for semidefinite
matrices.  Real input stays in real arithmetic throughout.
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
SHIFT_TOL = 1e-10  # largest Cholesky shift, relative to ||A||_2


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

    The shift is the smallest value in [0, SHIFT_TOL * ||A||_2] that makes
    the factorization succeed, tried at a few multiples of eps * ||A||_2
    above -lambda_min; matrices whose minimum eigenvalue is below
    -SHIFT_TOL * ||A||_2 are rejected with :class:`NotPsdError` (they lie
    outside the stability cone, which signals a model bug upstream).
    """
    A = check_hermitian(A)
    try:
        return np.linalg.cholesky(A), 0.0
    except np.linalg.LinAlgError:
        pass
    w = np.linalg.eigvalsh(A)
    norm = max(abs(float(w[0])), abs(float(w[-1])))
    scale = max(norm, np.finfo(float).tiny)
    lam_min = float(w[0])
    sigma_cap = SHIFT_TOL * scale
    if lam_min < -sigma_cap:
        raise NotPsdError(
            f"matrix is not positive semidefinite: min eigenvalue "
            f"{lam_min:.3e} < -{SHIFT_TOL:g} * ||A|| = {-sigma_cap:.3e}"
        )
    eps = np.finfo(float).eps
    eye = np.eye(A.shape[0])
    for mult in (1.0, 1e2, 1e4, 1e6):
        sigma = min(max(0.0, -lam_min) + mult * eps * scale, sigma_cap)
        try:
            return np.linalg.cholesky(A + sigma * eye), sigma
        except np.linalg.LinAlgError:
            continue
    raise NotPsdError(
        f"factorization failed even with the maximal allowed shift "
        f"{sigma_cap:.3e} (min eigenvalue {lam_min:.3e})"
    )
