"""Dense real kernels: symmetric eigenvalues, skew-symmetric spectra and
PSD Cholesky with a rounding-sized shift.

Thin contracts over the LAPACK routines exposed by numpy, on plain arrays:
``hermitian_eig`` returns the ascending eigenvalue array and
``cholesky_psd`` the pair (C, sigma).  The ascending +/- pairs of a real
skew-symmetric S come two ways: ``skew_spectrum`` reads them off one
singular value decomposition, with absolute error about eps * mu_max, and
takes singular S; ``gram_spectrum`` reads them off one symmetric
eigensolve of the Gram matrix S^T S, with error about eps * mu_max^2 / mu,
at less than half the cost, and hands S to the SVD when
mu_min < 1e-3 * mu_max (an error bound of about 5e2 * eps * mu_max).  That
guard is kept there alone: ``ensemble.spectrum_X`` forms S^T S as one
product of a dense S, or assembles its upper triangle from blocks of S,
and passes a function that returns S, called only for the SVD.  ``check_hermitian``
validates a real matrix (symmetry and finiteness); it and ``cholesky_psd``
reject a complex one.  The kernels trust their callers, and
``ensemble.spectrum_X`` checks each sample once, before any of them runs.
The value added by ``cholesky_psd`` is cone membership and the diagonal
shift for semidefinite matrices: a ladder of a few multiples of
eps * max A_ii, with no eigensolve.  The oracle's H is real, so every
kernel takes real input and stays in real arithmetic; LAPACK's own
LinAlgError passes through.

Memory: numpy copies every matrix into LAPACK's column order.  Symmetric
input is passed as its transpose, an F-contiguous view of the same
numbers, which makes that copy contiguous rather than a strided
transpose.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NotPsdError",
    "check_hermitian",
    "hermitian_eig",
    "skew_spectrum",
    "gram_spectrum",
    "cholesky_psd",
]


class NotPsdError(np.linalg.LinAlgError):
    """The matrix is indefinite beyond the allowed semidefinite tolerance."""


HERMITIAN_TOL = 1e-12  # max |A - A^T| allowed, relative to max |A|
SHIFT_TOL = 1e-10  # largest Cholesky shift, relative to max A_ii
_ROW_BLOCK = 32  # rows per block of check_hermitian's residual


def _real_square(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if np.iscomplexobj(A):
        raise ValueError(f"expected a real matrix, got dtype {A.dtype}")
    return A


def check_hermitian(A) -> np.ndarray:
    """Validate a real A = A^T within ``HERMITIAN_TOL`` relative, with every
    entry finite, and return the array.

    No dim^2 temporary is made: the scale is max(max A, -min A), and the
    residual is taken over blocks of ``_ROW_BLOCK`` rows.  Complex input is
    rejected.
    """
    A = _real_square(A)
    bounds = (float(A.max(initial=0.0)), -float(A.min(initial=0.0)))
    # max and min propagate nan and inf, but Python's max below would drop a
    # nan, and the residual test alone would pass one
    if not all(map(math.isfinite, bounds)):
        raise ValueError("matrix has non-finite entries")
    scale = max(*bounds, np.finfo(float).tiny)
    # each block of rows against its transpose from its own first column on:
    # every pair (i, j) is compared once, in the block holding min(i, j)
    resid = 0.0
    for start in range(0, len(A), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        block = A[rows, start:] - A[start:, rows].T
        resid = max(resid, float(np.abs(block).max()))
    if resid > HERMITIAN_TOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: max |A - A^T| = {resid:.3e} "
            f"exceeds {HERMITIAN_TOL:g} * max|A| = {HERMITIAN_TOL * scale:.3e}"
        )
    return A


def hermitian_eig(A) -> np.ndarray:
    """Ascending spectrum of a real symmetric matrix (LAPACK-backed)."""
    return np.linalg.eigvalsh(check_hermitian(A))


def skew_spectrum(S) -> np.ndarray:
    """Ascending spectrum of the Hermitian matrix i*S, S real skew-symmetric.

    The eigenvalues of i*S are +/- the singular values of S, which come in
    equal pairs; one ``svd`` without vectors gives them all, and each pair
    contributes one negative and one positive member, so the absolute values
    are the singular values exactly.  A real skew-symmetric S of even
    dimension is the caller's to guarantee (``spectrum_X`` builds S from
    blocks of a checked H); it is not checked here.
    """
    s = np.linalg.svd(S, compute_uv=False)
    return np.concatenate((-s[::2], s[-1::-2]))


def gram_spectrum(G, skew) -> np.ndarray:
    """``skew_spectrum`` of a nonsingular real skew-symmetric S, from its
    Gram matrix G = S^T S.

    S^T S = -S^2 is symmetric positive definite, and its eigenvalues w are
    the squared singular values of S, each twice; one symmetric eigensolve
    costs less than half the SVD.  Squaring turns the SVD's absolute error of
    about eps * mu_max into about eps * mu_max^2 / mu, so when
    w_min <= 1e-6 * w_max (mu_min <= 1e-3 * mu_max, where that bound passes
    5e2 * eps * mu_max) ``skew_spectrum`` takes S instead, from ``skew()``,
    which is called only then and may overwrite G.  Only G's upper
    triangle is read, and G is not checked: its transpose goes to LAPACK
    as it lies in column order, and LAPACK reads that transpose's lower
    triangle.  So G's strict lower triangle may hold anything (the p-first
    route keeps a block of S there); numpy's one product ``S.T @ S`` fills
    both.
    """
    w = np.linalg.eigvalsh(G.T)
    if not w[0] > 1e-6 * w[-1]:
        return skew_spectrum(skew())
    mu = np.sqrt(w[1::2])
    return np.concatenate((-mu[::-1], mu))


def cholesky_psd(A):
    """Lower-triangular C and shift sigma with A + sigma*I = C C^T, A real.

    The models keep A positive semidefinite, so a shift only has to absorb
    rounding, and a few eps * max A_ii are enough for that (Higham, 1990).
    sigma is the first of 0, eps, 1e2 * eps, 1e4 * eps and SHIFT_TOL, times
    max A_ii, at which the factorization succeeds; no eigensolve runs on
    that path.  A matrix that fails at every rung lies outside the stability
    cone, which signals a model bug upstream: :class:`NotPsdError` is raised
    with its minimum eigenvalue.  Complex input is rejected, since the
    factor of A^T would be that of conj(A).  A must be symmetric, which is
    the caller's to guarantee and not checked here.  A is passed to LAPACK
    as A^T, the same numbers when A is exactly symmetric; LAPACK reads one
    triangle.
    """
    A = _real_square(A)
    scale = max(float(np.abs(A.diagonal()).max(initial=0.0)), np.finfo(float).tiny)
    eps = np.finfo(float).eps
    for sigma in (m * scale for m in (0.0, eps, 1e2 * eps, 1e4 * eps, SHIFT_TOL)):
        try:
            return np.linalg.cholesky(A.T + sigma * np.eye(len(A)) if sigma else A.T), sigma
        except np.linalg.LinAlgError:
            pass
    raise NotPsdError(
        f"matrix is not positive semidefinite: min eigenvalue "
        f"{np.linalg.eigvalsh(A)[0]:.3e}, and the factorization fails at the "
        f"largest shift {SHIFT_TOL:g} * max A_ii = {sigma:.3e}"
    )
