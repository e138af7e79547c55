"""Monte Carlo oracle: exact diagonalization of sampled finite realizations.

A realization of the generator is X = K + R with R built site by site from
rectangular Gaussian couplings L_j subject to the reality condition
conj(L) = L * Sigma1, which is solved identically by L = (A | conj(A)).
Stability (all eigenfrequencies real) holds by construction because
H = i*Sigma3*X = i*Sigma3*K + blockdiag(L_j^dagger L_j) is positive
semidefinite.

The reality condition makes the oracle real.  In the quadrature basis
(q, p) of each site, a = (q + i p)/sqrt(2), i.e. under
U = (1/sqrt(2)) [[I, iI], [I, -iI]], each coupling becomes
L U = sqrt(2) (Re A | -Im A) and H becomes real symmetric, while Sigma3
becomes U^dagger Sigma3 U = i*J with J = [[0, I], [-I, 0]].  With
H = C C^T (real Cholesky) the frequencies are the eigenvalues of i*S,
S = C^T J C real skew-symmetric, i.e. +/- the singular values of S
(Williamson's symplectic form of H).  A definite H (factored with no shift)
gives a nonsingular S, whose squared singular values are the eigenvalues of
S^T S = -S^2: one symmetric eigensolve reads them off.  A shifted H (zero
modes, as in the flat band at M < 2N) or an ill-conditioned S
(mu_min < 1e-3 * mu_max, where squaring would lose more than about
5e2 * eps * mu_max) takes one SVD of S instead.

Each realization takes one path through plain real arrays: ``sample_block``
returns a site's L, ``draw_sample`` the quadrature-basis H (via
``assemble_H``), and ``spectrum_X`` the eigenfrequency array of X.  The
deterministic term ``quadrature_K`` is computed once per run.  ``mc_dos``
bins the spectra of many realizations into a :class:`SpectrumHistogram`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

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
    "sample_block",
    "quadrature_K",
    "assemble_H",
    "spectrum_X",
    "draw_sample",
    "mc_dos",
]


class ConeViolationError(RuntimeError):
    """A sampled generator left the stability cone (model invariant breach)."""


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


def sample_block(params: ModelParams, rng: np.random.Generator) -> np.ndarray:
    """Draw one site coupling L = (A | conj(A)) from the Gaussian measure of
    strength b; L satisfies the reality condition conj(L) = L * Sigma1
    identically.

    The free entries A_{mn} are i.i.d. complex Gaussians with
    E|A_{mn}|^2 = b / (2N), i.e. real and imaginary parts of variance
    b / (4N) each.
    """
    if params.M is None or params.N is None:
        raise ValueError("sampling requires both M and N")
    std = np.sqrt(params.b / (4.0 * params.N))
    shape = (params.M, params.N)
    A = std * rng.normal(size=shape) + 1j * std * rng.normal(size=shape)
    return np.hstack([A, A.conj()])


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
    blocks: Sequence[np.ndarray],
    K: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Real symmetric H = U^dagger (i*Sigma3*K + blockdiag(L_j^dagger L_j)) U
    in the quadrature basis.

    ``blocks`` holds one coupling L_j = (A_j | conj(A_j)) per site, as drawn
    by ``sample_block``; its Gram matrix enters as that of L_j U =
    sqrt(2) (Re A_j | -Im A_j).  ``K`` is the real deterministic term
    ``quadrature_K(assemble_K(params), N)``; it may be omitted at nu = 0,
    where K vanishes.
    """
    N = params.N
    if N is None:
        raise ValueError("assemble_H requires the band count N")
    n_sites = len(blocks)
    dim = 2 * N * n_sites
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
    for j, L in enumerate(blocks):
        sl = slice(2 * N * j, 2 * N * (j + 1))
        A = L[:, :N]
        W = np.hstack((A.real, -A.imag))
        H[sl, sl] += 2.0 * (W.T @ W)
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
    complex H (the (a, a*) basis) is rejected.
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
    sites, drawn from a spawned per-sample seed sequence."""
    rng = np.random.default_rng(child)
    blocks = [sample_block(params, rng) for _ in range(params.n_sites)]
    return assemble_H(params, blocks, K=K)


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
    gets its own RNG stream spawned from (seed, sample index), so results
    are reproducible and independent of any execution order.  Zero modes
    (|mu| <= zero_tol, with zero_tol = 1e-8 * max|mu| over all samples) are
    counted separately from the binned density.  The scale is the largest
    frequency, not a typical one, because at a < 1/2 most modes are zero
    modes.  An ensemble with M < 2 is sampled as requested, with a note that
    the mean-field benchmark does not control it.
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

    values = np.concatenate([
        np.abs(spectrum_X(draw_sample(params, child, K=K), params.N))
        for child in np.random.SeedSequence(seed).spawn(n_samples)
    ])
    total = values.size

    zero_tol = 1e-8 * float(values.max())
    nonzero = values[values > zero_tol]
    zero_count = total - nonzero.size

    top = float(nonzero.max()) if nonzero.size else 1.0
    hi = top if omega_max is None else float(omega_max)
    binned = nonzero[nonzero <= hi]
    overflow = nonzero.size - binned.size
    counts, edges = np.histogram(binned, bins=bins, range=(0.0, hi))
    return SpectrumHistogram(
        bin_edges=edges,
        counts=counts,
        total_eigenvalues=total,
        zero_mode_count=zero_count,
        zero_tol=zero_tol,
        seed=seed,
        overflow_count=overflow,
        notes=(_M1_NOTE,) if params.M < 2 else (),
    )
