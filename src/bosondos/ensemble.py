"""Monte Carlo oracle: exact diagonalization of sampled finite realizations.

A realization of the generator is X = K + R with R built site by site from
rectangular Gaussian couplings L_j subject to the reality condition
conj(L) = L * Sigma1, which is solved identically by L = (A | conj(A)).
Stability (all eigenfrequencies real) holds by construction because
H = i*Sigma3*X = i*Sigma3*K + blockdiag(L_j^dagger L_j) is positive
semidefinite, and the spectrum of X is recovered from H through a stable
Hermitian reduction.

Each realization takes one path through plain arrays: ``sample_block``
returns a site's L, ``draw_sample`` the assembled H (via ``assemble_H``),
and ``spectrum_X`` the eigenfrequency array of X.  Sigma3 is kept as its
diagonal of signs and applied by row scaling.  ``mc_dos`` bins the spectra
of many realizations into a :class:`SpectrumHistogram`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import NotPsdError, cholesky_psd, hermitian_eig
from .model import ModelParams, assemble_K

__all__ = [
    "ConeViolationError",
    "SpectrumHistogram",
    "sample_block",
    "assemble_H",
    "spectrum_X",
    "draw_sample",
    "mc_dos",
]


class ConeViolationError(RuntimeError):
    """A sampled generator left the stability cone (model invariant breach)."""


@dataclass(frozen=True)
class SpectrumHistogram:
    """Binned |eigenfrequency| counts, normalized to the two-sided density
    convention of :class:`bosondos.cpa.DosCurve`.

    Every +/- eigenvalue pair contributes both members to ``counts``;
    ``densities`` are counts / (2 * total * width) so that twice the binned
    integral plus the zero-mode (and any overflow) fraction equals one.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    total_eigenvalues: int
    zero_mode_count: int
    zero_tol: float
    seed: int
    overflow_count: int = 0

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
    if params.M < 2:
        warnings.warn(
            "M = 1 ensembles are sampled as requested, but the large-N "
            "mean-field benchmark is only controlled for M >= 2",
            UserWarning,
            stacklevel=2,
        )
    std = np.sqrt(params.b / (4.0 * params.N))
    shape = (params.M, params.N)
    A = std * rng.normal(size=shape) + 1j * std * rng.normal(size=shape)
    return np.hstack([A, A.conj()])


def _sigma3(N: int, n_sites: int) -> np.ndarray:
    """Diagonal of Sigma3 on n_sites sites: +1 on each site's a modes, -1 on
    its a* modes."""
    return np.tile(np.repeat([1.0, -1.0], N), n_sites)


def assemble_H(
    params: ModelParams,
    blocks: Sequence[np.ndarray],
    K: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Hermitian reduction H = i*Sigma3*K + blockdiag(L_j^dagger L_j).

    ``blocks`` holds one coupling L_j per site, as drawn by ``sample_block``.
    ``K`` may be omitted in the single-site random-matrix limit (nu = 0,
    where K vanishes); otherwise pass the output of ``assemble_K``.
    """
    N = params.N
    if N is None:
        raise ValueError("assemble_H requires the band count N")
    n_sites = len(blocks)
    dim = 2 * N * n_sites
    if K is None:
        if params.nu != 0:
            raise ValueError("K may be omitted only in the nu = 0 limit")
        H = np.zeros((dim, dim), dtype=complex)
    else:
        if K.shape != (dim, dim):
            raise ValueError(f"K has shape {K.shape}, expected {(dim, dim)}")
        H = 1j * _sigma3(N, n_sites)[:, None] * K
    for j, L in enumerate(blocks):
        sl = slice(2 * N * j, 2 * N * (j + 1))
        H[sl, sl] += L.conj().T @ L
    return H


def spectrum_X(H: np.ndarray, N: int) -> np.ndarray:
    """All real eigenfrequencies mu of X = -i*Sigma3*H, H PSD (ascending).

    With H = C C^dagger the spectrum of Sigma3 * H equals that of the
    Hermitian matrix C^dagger * Sigma3 * C, so the computation stays in
    stable Hermitian linear algebra throughout.  The output comes in +/-
    pairs; a Cholesky failure means H left the stability cone.
    """
    dim = H.shape[0]
    if dim % (2 * N) != 0:
        raise ValueError(f"H dimension {dim} is not a multiple of 2N={2 * N}")
    try:
        C, _sigma = cholesky_psd(H)
    except NotPsdError as exc:
        raise ConeViolationError(
            f"sampled generator is outside the stability cone: {exc}"
        ) from exc
    reduced = C.conj().T @ (_sigma3(N, dim // (2 * N))[:, None] * C)
    reduced = 0.5 * (reduced + reduced.conj().T)  # scrub rounding asymmetry
    return hermitian_eig(reduced)


def draw_sample(
    params: ModelParams,
    child: np.random.SeedSequence,
    K: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The reduction H of one realization on ``params.n_sites`` sites, drawn
    from a spawned per-sample seed sequence."""
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
    modes.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if bins < 1:
        raise ValueError("bins must be at least 1")
    if params.extents is None:
        if params.nu != 0:
            raise ValueError(
                "single-site sampling (extents=None) requires nu = 0"
            )
        K = None
    else:
        K = assemble_K(params)

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
    )
