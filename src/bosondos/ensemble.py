"""Monte Carlo oracle: exact diagonalization of sampled finite realizations.

A realization of the generator is X = K + R with R built site by site from
rectangular Gaussian couplings L_j subject to the reality condition
conj(L) = L * Sigma1, which is solved identically by L = (A | conj(A)), the
M x N entries of A i.i.d. complex Gaussians with E|A_mn|^2 = b / (2N).
Stability (all eigenfrequencies real) holds by construction because
H = i*Sigma3*X = i*Sigma3*K + blockdiag(L_j^dagger L_j) is positive
semidefinite.

The reality condition makes the oracle real.  In the quadrature basis
(q, p) of each site, a = (q + i p)/sqrt(2), i.e. under
U = (1/sqrt(2)) [[I, iI], [I, -iI]], each coupling becomes
L U = sqrt(2) W with W = (Re A | -Im A) real, so the oracle draws W and
never forms L, and H becomes real symmetric, while Sigma3
becomes U^dagger Sigma3 U = i*J with J = [[0, I], [-I, 0]].  With
H = C C^T (real Cholesky) the frequencies are the eigenvalues of i*S,
S = C^T J C real skew-symmetric, i.e. +/- the singular values of S
(Williamson's symplectic form of H).  A definite H (factored with no shift)
gives a nonsingular S, whose squared singular values are the eigenvalues of
S^T S = -S^2: one symmetric eigensolve reads them off.  A shifted H (zero
modes, as in the flat band at M < 2N) or an ill-conditioned S
(mu_min < 1e-3 * mu_max, where squaring would lose more than about
5e2 * eps * mu_max) takes one SVD of S instead.

Each realization takes one path through plain real arrays: ``draw_sample``
draws every site's W in one call and returns the quadrature-basis H (via
``assemble_H``), and ``spectrum_X`` the eigenfrequency array of X.  The
deterministic term ``quadrature_K`` is computed once per run.  ``mc_dos``
keeps |mu| of many realizations in one array, a row each, and bins it in
row blocks into a :class:`SpectrumHistogram`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

# hermitian_eig is unused here but stays bound: perfbench/tracing.py hooks
# it under this module's name.
from .linalg import (  # noqa: F401
    NotPsdError,
    cholesky_psd,
    hermitian_eig,
    skew_spectrum,
    skew_spectrum_gram,
)
from .model import ModelParams, assemble_K

__all__ = [
    "ConeViolationError",
    "SpectrumHistogram",
    "quadrature_K",
    "assemble_H",
    "spectrum_X",
    "draw_sample",
    "mc_dos",
]


class ConeViolationError(RuntimeError):
    """A sampled generator left the stability cone (model invariant breach)."""


# mc_dos bins its |mu| array in blocks of whole rows of about this many values
_BIN_BLOCK = 8192

_M1_NOTE = ("M = 1 ensembles are sampled as requested, but the large-N "
            "mean-field benchmark is only controlled for M >= 2")


@dataclass(frozen=True)
class SpectrumHistogram:
    """Binned |eigenfrequency| counts, normalized to the two-sided density
    convention of :class:`bosondos.cpa.DosCurve`.

    Every +/- eigenvalue pair contributes both members to ``counts``;
    ``densities`` are counts / (2 * total * width) so that twice the binned
    integral plus the zero-mode (and any overflow) fraction equals one.
    ``notes`` carry non-fatal diagnostics of the run.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    total_eigenvalues: int
    zero_mode_count: int
    zero_tol: float
    seed: int
    overflow_count: int = 0
    notes: Tuple[str, ...] = ()

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[1:] + self.bin_edges[:-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)

    @property
    def densities(self) -> np.ndarray:
        return self.counts / (2.0 * self.total_eigenvalues * self.widths)

    @property
    def zero_mode_fraction(self) -> float:
        return self.zero_mode_count / self.total_eigenvalues

    def __post_init__(self):
        booked = int(self.counts.sum()) + self.zero_mode_count + self.overflow_count
        if booked != self.total_eigenvalues:
            raise ValueError(
                f"bookkeeping broken: {booked} binned+zero+overflow vs "
                f"{self.total_eigenvalues} eigenvalues"
            )


def quadrature_K(K: np.ndarray, N: int) -> np.ndarray:
    """Deterministic part U^dagger (i*Sigma3*K) U of H in the quadrature
    basis, for the generator K of ``assemble_K``.

    The reality condition of K makes this term real; that is checked here,
    once, and the real symmetric array is returned.
    """
    n = 2 * N
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] % n:
        raise ValueError(f"K has shape {K.shape}, not a square multiple of 2N={n}")
    dim = K.shape[0]
    sites = dim // n
    u = np.kron([[1.0, 1.0j], [1.0, -1.0j]], np.eye(N)) / np.sqrt(2.0)
    B = 1j * np.tile(np.repeat([1.0, -1.0], N), sites)[:, None] * K
    # u^dagger on each site's rows, then u on each site's columns
    Hq = ((u.conj().T @ B.reshape(sites, n, dim)).reshape(dim * sites, n) @ u)
    Hq = Hq.reshape(dim, dim)
    scale = max(float(np.abs(Hq).max(initial=0.0)), np.finfo(float).tiny)
    imag = float(np.abs(Hq.imag).max(initial=0.0))
    if not imag <= 1e-12 * scale:
        raise ValueError(
            f"K breaks the reality condition: its quadrature-basis term has "
            f"max |Im| = {imag:.3e} against max |entry| = {scale:.3e}"
        )
    return Hq.real.copy()


def assemble_H(
    params: ModelParams,
    W: np.ndarray,
    K: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Real symmetric H = U^dagger (i*Sigma3*K + blockdiag(L_j^dagger L_j)) U
    in the quadrature basis.

    ``W`` is the real (n_sites, M, 2N) array of the couplings in quadrature
    form, W_j = L_j U / sqrt(2) = (Re A_j | -Im A_j), as ``draw_sample``
    draws them.  Through the (site, band, site, band) view
    ``H.reshape(n_sites, 2N, n_sites, 2N)`` every site's diagonal block gains
    2 W_j^T W_j from one stacked product, which numpy takes slice by slice
    with syrk, so each block is exactly symmetric.  ``K`` is the real
    deterministic term ``quadrature_K(assemble_K(params), N)``; it may be
    omitted at nu = 0, where K vanishes.
    """
    N = params.N
    if N is None:
        raise ValueError("assemble_H requires the band count N")
    n, sites = 2 * N, params.n_sites
    shape = (sites, params.M, n)
    if np.iscomplexobj(W) or W.shape != shape:
        raise ValueError(f"W is {W.dtype} {W.shape}, not real (n_sites, M, 2N) "
                         f"= {shape}")
    dim = n * sites
    if K is None:
        if params.nu != 0:
            raise ValueError("K may be omitted only in the nu = 0 limit")
        H = np.zeros((dim, dim))
    elif np.iscomplexobj(K):
        raise ValueError("assemble_H takes the real term quadrature_K(K, N), not K")
    elif K.shape != (dim, dim):
        raise ValueError(f"K has shape {K.shape}, expected {(dim, dim)}")
    else:
        H = K.copy()
    # einsum's repeated index gives a writable view of the diagonal blocks
    diagonal = np.einsum("jajb->jab", H.reshape(sites, n, sites, n))
    diagonal += 2.0 * (W.transpose(0, 2, 1) @ W)
    return H


def spectrum_X(H: np.ndarray, N: int) -> np.ndarray:
    """All real eigenfrequencies mu of X, ascending, from the real
    quadrature-basis H of ``assemble_H`` (PSD).

    With H = C C^T the spectrum of X equals that of i*S, S = C^T J C real
    skew-symmetric, so the computation stays in real arithmetic throughout.
    Per site, J swaps the q and p rows, so S = T - T^T with T = C_q^T C_p.
    If H factored with no shift, ``skew_spectrum_gram`` takes S (one
    symmetric eigensolve of S^T S, or the SVD when mu_min < 1e-3 * mu_max);
    a shifted H has zero modes that squares cannot resolve at ``zero_tol``,
    and goes to the SVD of ``skew_spectrum`` directly.  The output comes in
    +/- pairs; a Cholesky failure means H left the stability cone.  A
    complex H (the (a, a*) basis) is rejected.  The reference to H is
    dropped once it is factored, so an H the caller passes as a temporary
    is freed before the reduction and the kernel allocate theirs.
    """
    if np.iscomplexobj(H):
        raise ValueError(
            "spectrum_X takes the real quadrature-basis H of assemble_H, "
            f"got {H.dtype}"
        )
    dim = H.shape[0]
    if dim % (2 * N) != 0:
        raise ValueError(f"H dimension {dim} is not a multiple of 2N={2 * N}")
    try:
        C, sigma = cholesky_psd(H)
    except NotPsdError as exc:
        raise ConeViolationError(
            f"sampled generator is outside the stability cone: {exc}"
        ) from exc
    del H
    rows = C.reshape(dim // (2 * N), 2, N, dim)
    T = rows[:, 0].reshape(-1, dim).T @ rows[:, 1].reshape(-1, dim)
    # drop C and T before the kernel allocates its own dim^2 arrays
    del C, rows
    S = T - T.T
    del T
    return skew_spectrum(S) if sigma else skew_spectrum_gram(S)


def draw_sample(
    params: ModelParams,
    child: np.random.SeedSequence,
    K: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The quadrature-basis H of one realization on ``params.n_sites``
    sites, drawn from a spawned per-sample seed sequence: one call draws
    the standard normals x of Re A_j and Im A_j for every site j, shaped
    (n_sites, 2, M, N), and W_j = sqrt(b / (4N)) (x_j0 | -x_j1)."""
    N, M, n_sites = params.N, params.M, params.n_sites
    if N is None:
        raise ValueError("sampling requires both M and N")
    x = np.random.default_rng(child).normal(size=(n_sites, 2, M, N))
    W = np.concatenate((x[:, 0], -x[:, 1]), axis=2)
    W *= np.sqrt(params.b / (4.0 * N))
    return assemble_H(params, W, K=K)


def mc_dos(
    params: ModelParams,
    n_samples: int,
    bins: int,
    seed: int,
    omega_max: Optional[float] = None,
) -> SpectrumHistogram:
    """Eigenfrequency histogram over ``n_samples`` independent realizations.

    The lattice geometry comes from ``params.extents`` (``None`` selects the
    single-site random-matrix limit, which requires nu = 0).  Each sample
    gets its own RNG stream, made when the sample is drawn as
    ``SeedSequence(seed, spawn_key=(i,))``, which is
    ``SeedSequence(seed).spawn(n_samples)[i]``; so results are reproducible
    and independent of any execution order.  Zero modes (|mu| <= zero_tol,
    with zero_tol = 1e-8 * max|mu| over all samples) are counted separately
    from the binned density, and a zero mode past ``omega_max`` is not also
    overflow.  The scale is the largest frequency, not a typical one,
    because at a < 1/2 most modes are zero modes.  An ensemble with M < 2 is
    sampled as requested, with a note that the mean-field benchmark does not
    control it.

    Memory: the run holds one float64 per eigenvalue, the |mu| of sample i
    in row i of one (n_samples, 2N * n_sites) array, plus one sample's
    working set and one block of whole rows (about 8192 values) that the
    histogram is summed over; nothing is kept per realization.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if bins < 1:
        raise ValueError("bins must be at least 1")
    if omega_max is not None and not 0 < omega_max < math.inf:
        raise ValueError(f"omega_max must be positive and finite, got {omega_max}")
    if params.extents is None:
        if params.nu != 0:
            raise ValueError(
                "single-site sampling (extents=None) requires nu = 0"
            )
        K = None
    else:
        K = quadrature_K(assemble_K(params), params.N)

    values = np.empty((n_samples, 2 * params.N * params.n_sites))
    for i, row in enumerate(values):
        child = np.random.SeedSequence(seed, spawn_key=(i,))
        np.abs(spectrum_X(draw_sample(params, child, K=K), params.N), out=row)

    largest = float(values.max())
    zero_tol = 1e-8 * largest
    # the largest nonzero mode, if any, is the largest mode
    top = largest if largest > zero_tol else 1.0
    hi = top if omega_max is None else float(omega_max)
    # the counts are summed over blocks of whole rows, so the tail's
    # temporaries stay at one block whatever n_samples
    rows = max(1, _BIN_BLOCK // values.shape[1])
    counts = np.zeros(bins, dtype=np.intp)
    nonzero_count = overflow = 0
    for start in range(0, n_samples, rows):
        block = values[start:start + rows].ravel()
        nonzero = block[block > zero_tol]
        nonzero_count += nonzero.size
        overflow += int(np.count_nonzero(nonzero > hi))
        block_counts, edges = np.histogram(nonzero, bins=bins, range=(0.0, hi))
        counts += block_counts
    return SpectrumHistogram(
        bin_edges=edges,
        counts=counts,
        total_eigenvalues=values.size,
        zero_mode_count=values.size - nonzero_count,
        zero_tol=zero_tol,
        seed=seed,
        overflow_count=overflow,
        notes=(_M1_NOTE,) if params.M < 2 else (),
    )
