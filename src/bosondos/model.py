"""Clean (disorder-free) lattice model: parameters and the deterministic term.

Conventions used throughout the package: hbar = 1, so every energy is an
angular frequency; finite lattices are periodic; the per-site phase-space
basis is the quadrature basis (q_1 .. q_N, p_1 .. p_N), with
a = (q + i p)/sqrt(2), i.e. all coordinates first, then all momenta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "ModelParams",
    "assemble_K",
]


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the disordered boson model.

    Parameters
    ----------
    d : int
        Spatial dimension of the lattice.
    extents : tuple of int, optional
        Per-dimension site counts L >= 3 of the periodic lattice that the
        oracle samples and whose momenta 2*pi*j/L the mean field averages
        over.  ``None`` selects the single-site (pure random-matrix) oracle,
        valid only for nu = 0, and the mean field's infinite-lattice grid.
    N : int, optional
        Number of identical bands per site.  Required for sampling, not for
        the mean-field equations (which depend on N only through ``a``).
    M : int, optional
        Dimension of the auxiliary space the random couplings map into.
    a : float, optional
        Ratio M / (2N).  May be given directly (mean-field mode) or derived
        from M and N; giving all three requires exact consistency.
    b : float
        Disorder strength (frequency units), the variance scale of the
        Gaussian coupling measure.
    nu : float
        Frequency scale of the deterministic generator (nu = 0 switches the
        model into the pure random-matrix limit).
    """

    d: int = 1
    extents: Optional[Tuple[int, ...]] = None
    N: Optional[int] = None
    M: Optional[int] = None
    a: Optional[float] = None
    b: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d}")
        object.__setattr__(self, "d", int(self.d))
        for name in ("a", "b", "nu"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.b < 0 or self.nu < 0:
            raise ValueError("b and nu must be nonnegative")
        if self.b == 0 and self.nu == 0:
            raise ValueError("b and nu cannot both vanish")
        if (self.M is None) != (self.N is None):
            raise ValueError("M and N must be given together")
        if self.N is not None:
            if int(self.N) != self.N or self.N < 1:
                raise ValueError(f"N must be a positive integer, got {self.N}")
            if int(self.M) != self.M or self.M < 1:
                raise ValueError(f"M must be a positive integer, got {self.M}")
            object.__setattr__(self, "N", int(self.N))
            object.__setattr__(self, "M", int(self.M))
            ratio = self.M / (2 * self.N)
            if self.a is None:
                object.__setattr__(self, "a", ratio)
            elif self.a != ratio:
                raise ValueError(
                    f"inconsistent parameters: a={self.a} but M/(2N)={ratio}"
                )
        if self.a is None:
            raise ValueError("either a or the pair (M, N) is required")
        if self.a <= 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.extents is not None:
            if any(int(n) != n for n in self.extents):
                raise ValueError(f"extents must be integers, got {self.extents!r}")
            extents = tuple(int(n) for n in self.extents)
            if len(extents) != self.d:
                raise ValueError(
                    f"extents {extents} do not match dimension d={self.d}"
                )
            if any(n < 3 for n in extents):
                raise ValueError(f"each periodic dimension needs at least 3 sites, "
                                 f"got extents {extents}")
            object.__setattr__(self, "extents", extents)

    @property
    def n_sites(self) -> int:
        return 1 if self.extents is None else math.prod(self.extents)


def _sample_dim(params: ModelParams) -> int:
    """The dimension 2N * n_sites of a realization's H."""
    if params.N is None:
        raise ValueError("sampling requires both M and N")
    return 2 * params.N * params.n_sites


def _check_buffer(H: np.ndarray, dim: int) -> None:
    """Require H to be a C-contiguous dim x dim float64 array, so that its
    block views are views."""
    if H.shape != (dim, dim) or H.dtype != np.float64 or not H.flags.c_contiguous:
        raise ValueError(f"H must be a C-contiguous float64 array of shape "
                         f"{(dim, dim)}, got {H.dtype} {H.shape}")


def assemble_K(params: ModelParams, H: np.ndarray) -> np.ndarray:
    """H, a real dim x dim array, dim = 2N * n_sites, set to the
    deterministic part U^dagger (i*Sigma3*K) U of the oracle's Hermitian
    form alone, for the clean generator K, in the quadrature basis (a, a*) =
    U (q, p); ``ensemble.assemble_H`` adds the couplings to it in place.
    ``ensemble.mc_dos`` passes one H for the whole run, and its old contents
    are overwritten.

    Each site carries nu on the diagonal, and each directed nearest-neighbour
    bond -nu/(2d) at its q-q entries only, the bonds read off ``np.roll`` of
    the site-index grid.  The discrete Fourier transform is
    nu diag((1 - dlt_k) Id_N, Id_N), with dlt_k = (1/d) sum_i cos(k_i) the
    scaled Laplacian symbol, so the clean frequency is nu * sqrt(1 - dlt_k).
    """
    if params.extents is None:
        raise ValueError("assemble_K requires a finite lattice (extents)")
    _check_buffer(H, _sample_dim(params))
    H.fill(0.0)
    d, N, nu = params.d, params.N, params.nu
    n, sites = 2 * N, params.n_sites
    np.fill_diagonal(H, nu)
    site = np.arange(sites)
    grid = site.reshape(params.extents)
    # L >= 3: a site's 2d neighbours are distinct and none is the site itself
    neighbours = np.stack([np.roll(grid, step, axis).ravel()
                           for axis in range(d) for step in (1, -1)], axis=1)
    q = np.arange(N)
    blocks = H.reshape(sites, n, sites, n)
    # factor 1/(2d): the symbol of the adjacency operator is 2d * dlt_k
    blocks[site[:, None, None], q, neighbours[..., None], q] = -nu / (2.0 * d)
    return H
