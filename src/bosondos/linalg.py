"""Dense kernels: Hermitian eigenvalues, skew-symmetric spectra and PSD
Cholesky with minimal shift.

Thin contracts over the LAPACK routines exposed by numpy, on plain arrays:
``hermitian_eig`` returns the ascending eigenvalue array, ``skew_spectrum``
the ascending +/- pairs of a real skew-symmetric matrix from one singular
value decomposition, and ``cholesky_psd`` the pair (C, sigma).  The value
added here is validation (Hermiticity and finiteness on input, cone
membership for the factorization) and the minimal-diagonal-shift policy for
semidefinite matrices.  Real input stays in real arithmetic throughout.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotPsdError",
    "check_hermitian",
    "hermitian_eig",
    "skew_spectrum",
    "cholesky_psd",
]


class NotPsdError(np.linalg.LinAlgError):
    """The matrix is indefinite beyond the allowed semidefinite tolerance."""


def _square(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def check_hermitian(A, rel_tol: float = 1e-12) -> np.ndarray:
    """Validate A = A^dagger within ``rel_tol`` relative, with every entry
    finite, and return the array."""
    A = _square(A)
    amax = float(np.abs(A).max(initial=0.0))
    # max propagates nan and inf; the residual test alone would pass nan
    if not np.isfinite(amax):
        raise ValueError("matrix has non-finite entries")
    scale = max(amax, np.finfo(float).tiny)
    resid = float(np.abs(A - A.conj().T).max(initial=0.0))
    if resid > rel_tol * scale:
        raise ValueError(
            f"matrix is not Hermitian: max |A - A^H| = {resid:.3e} "
            f"exceeds {rel_tol:g} * max|A| = {rel_tol * scale:.3e}"
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
    S = _square(S)
    if np.iscomplexobj(S) or S.shape[0] % 2:
        raise ValueError(
            f"expected a real matrix of even dimension, got {S.dtype} {S.shape}"
        )
    try:
        s = np.linalg.svd(S, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise np.linalg.LinAlgError(
            f"singular value decomposition failed to converge on a "
            f"{S.shape[0]}x{S.shape[0]} matrix: {exc}"
        ) from exc
    return np.concatenate((-s[::2], s[-1::-2]))


def cholesky_psd(A, shift_tol: float = 1e-10):
    """Lower-triangular C and shift sigma with A + sigma*I = C C^dagger.

    The shift is the smallest value in [0, shift_tol * ||A||_2] that makes
    the factorization succeed; matrices whose minimum eigenvalue is below
    -shift_tol * ||A||_2 are rejected with :class:`NotPsdError` (they lie
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
    if lam_min < -shift_tol * scale:
        raise NotPsdError(
            f"matrix is not positive semidefinite: min eigenvalue "
            f"{lam_min:.3e} < -{shift_tol:g} * ||A|| = {-shift_tol * scale:.3e}"
        )
    eps = np.finfo(float).eps
    eye = np.eye(A.shape[0])
    sigma_cap = shift_tol * scale
    for mult in (1.0, 1e2, 1e4, 1e6):
        sigma = max(0.0, -lam_min) + mult * eps * scale
        sigma = min(sigma, sigma_cap) if sigma > sigma_cap else sigma
        try:
            return np.linalg.cholesky(A + sigma * eye), sigma
        except np.linalg.LinAlgError:
            continue
    raise NotPsdError(
        f"factorization failed even with the maximal allowed shift "
        f"{sigma_cap:.3e} (min eigenvalue {lam_min:.3e})"
    )
