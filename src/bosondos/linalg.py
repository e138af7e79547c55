"""Dense Hermitian kernels: eigenvalues and PSD Cholesky with minimal shift.

Thin contracts over the LAPACK routines exposed by numpy, on plain arrays:
``hermitian_eig`` returns the ascending eigenvalue array and
``cholesky_psd`` the pair (C, sigma).  The value added here is validation
(Hermiticity on input, cone membership for the factorization) and the
minimal-diagonal-shift policy for semidefinite matrices.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotPsdError",
    "check_hermitian",
    "hermitian_eig",
    "cholesky_psd",
]


class NotPsdError(np.linalg.LinAlgError):
    """The matrix is indefinite beyond the allowed semidefinite tolerance."""


def check_hermitian(A, rel_tol: float = 1e-12) -> np.ndarray:
    """Validate A = A^dagger within ``rel_tol`` relative and return the array."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    scale = max(float(np.abs(A).max(initial=0.0)), np.finfo(float).tiny)
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
