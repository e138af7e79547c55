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
S^T S = -S^2: one symmetric eigensolve reads them off, in
``linalg.gram_spectrum`` on either route below.  A shifted H (zero modes,
as in the flat band at M < 2N) or an ill-conditioned S
(mu_min < 1e-3 * mu_max, where squaring would lose more than about
5e2 * eps * mu_max) takes one SVD of S instead.

The clean term couples sites only through q-q entries, and the couplings
are site-local, so at nu > 0 every p-p block of H is site-local and at
least nu * I.  There C is built p first, as a block Cholesky in the
(p..., q...) order (Golub & Van Loan, section 4.2): a stacked Cholesky of
the N x N p blocks, and ``cholesky_psd`` of the half-size q-q Schur
complement.  S^T S is then assembled from those blocks, with no dense
factorization of H; the eigensolve is left as the one dim-sized step.  At
nu = 0, at b = 0 (the clean term's acoustic q mode is an exact zero mode),
and when the p blocks or the Schur complement need a shift, H is factored
whole as before.

Each realization takes one path through plain real arrays: ``draw_sample``
draws every site's W in one call and returns the quadrature-basis H (via
``assemble_H``), and ``spectrum_X`` the eigenfrequency array of X.  Each H
starts as ``model.assemble_K``'s array with the deterministic term written
in closed form (nu on the diagonal, -nu/(2d) at the q-q entries of each
bond), and ``assemble_H`` adds the couplings in place, so the clean term
costs no array beyond H itself.  ``mc_dos`` keeps |mu| of many
realizations in one array, a row each, and bins it in row blocks into a
:class:`SpectrumHistogram`.

Memory: ``mc_dos`` allocates one dim x dim H per run, which every sample
rewrites from the clean term up and ``spectrum_X`` consumes as scratch.  On
the p-first route H's buffer receives S^T S, and a sample allocates the
(dim/2)^2 Schur complement (which then holds the off-diagonal block of C^T
J C), its Cholesky factor, numpy's copies of each LAPACK input and a few
stacked N x N site blocks.  On the dense route H's buffer receives T and
S^T S, and a sample allocates the dim^2 Cholesky factor (which also holds
S), the copies of its q rows and p rows, and numpy's copies of each LAPACK
input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

# hermitian_eig is unused here but stays bound: perfbench/tracing.py hooks
# it under this module's name.
from . import linalg
from .linalg import (  # noqa: F401
    NotPsdError,
    cholesky_psd,
    gram_spectrum,
    hermitian_eig,
    skew_spectrum,
)
from .model import ModelParams, _zeroed, assemble_K

__all__ = [
    "ConeViolationError",
    "SpectrumHistogram",
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


def assemble_H(params: ModelParams, W: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Real symmetric H = U^dagger (i*Sigma3*K + blockdiag(L_j^dagger L_j)) U
    in the quadrature basis.

    ``W`` is the real (n_sites, M, 2N) array of the couplings in quadrature
    form, W_j = L_j U / sqrt(2) = (Re A_j | -Im A_j), as ``draw_sample``
    draws them.  H starts as ``assemble_K(params, out)`` on a lattice,
    which holds the clean term alone, and as zeros on a single site, which
    requires nu = 0; it is ``out`` when given, else a new array.  Through
    the (site, band, site, band) view
    ``H.reshape(n_sites, 2N, n_sites, 2N)``, every site's diagonal block
    then gains 2 W_j^T W_j from one stacked product, which numpy takes
    slice by slice with syrk, so each block is exactly symmetric.
    """
    N = params.N
    if N is None:
        raise ValueError("assemble_H requires the band count N")
    n, sites = 2 * N, params.n_sites
    shape = (sites, params.M, n)
    if np.iscomplexobj(W) or W.shape != shape:
        raise ValueError(f"W is {W.dtype} {W.shape}, not real (n_sites, M, 2N) "
                         f"= {shape}")
    if params.extents is not None:
        H = assemble_K(params, out)
    elif params.nu == 0:
        H = _zeroed(out, n)
    else:
        raise ValueError("single-site sampling (extents=None) requires nu = 0")
    # einsum's repeated index gives a writable view of the diagonal blocks
    diagonal = np.einsum("jajb->jab", H.reshape(sites, n, sites, n))
    diagonal += 2.0 * (W.transpose(0, 2, 1) @ W)
    return H


def spectrum_X(H: np.ndarray, params: ModelParams) -> np.ndarray:
    """All real eigenfrequencies mu of X, ascending, from the real
    quadrature-basis H of ``assemble_H`` (PSD) for the model ``params``.

    With H = C C^T the spectrum of X equals that of i*S, S = C^T J C real
    skew-symmetric, so the computation stays in real arithmetic throughout.
    At nu > 0 every p-p block is site-local and at least nu * I, and C comes
    from eliminating each site's p block first: one stacked Cholesky of the
    p blocks and one ``cholesky_psd`` of the half-size q-q Schur complement
    (see ``_schur_spectrum``).  Every sample at nu = 0 or b = 0 (where H is
    singular), and one whose p blocks or Schur complement do not factor
    with no shift (nu below rounding against b), takes the dense route:
    ``cholesky_psd`` of H, where per site J swaps the q and p rows, so
    S = T - T^T with T = C_q^T C_p.  There, if H factored with no shift,
    ``gram_spectrum`` takes S^T S, as on the p-first route (one symmetric
    eigensolve, or the SVD of S when mu_min < 1e-3 * mu_max); a shifted H
    has zero modes that squares cannot resolve at ``zero_tol``, and goes to
    the SVD of ``skew_spectrum`` directly.  The output comes in +/- pairs;
    a Cholesky failure means H left the stability cone.  A complex H (the
    (a, a*) basis) is rejected, and so, at nu > 0, is an H with a p entry
    outside its site's diagonal block, which the p-first route would drop.

    H is consumed: its buffer receives T and S^T S on the dense route, and
    the Gram matrix and any dense S on the p-first one, so a caller that
    needs H afterwards passes a copy.  H must be a writable C-contiguous
    float64 array, as ``assemble_H`` returns.
    """
    if (H.dtype != np.float64 or not H.flags.c_contiguous
            or not H.flags.writeable):
        raise ValueError(
            "spectrum_X takes the real quadrature-basis H of assemble_H, "
            f"a writable C-contiguous float64 array, got {H.dtype}"
        )
    N = params.N
    if N is None:
        raise ValueError("spectrum_X requires the band count N")
    dim = H.shape[0]
    if dim % (2 * N) != 0:
        raise ValueError(f"H dimension {dim} is not a multiple of 2N={2 * N}")
    # at b = 0 the acoustic q mode of the clean term is an exact zero mode,
    # so the p-first factor would end on a pivot of rounding noise
    if params.nu > 0 and params.b > 0:
        mu = _schur_spectrum(H, N)
        if mu is not None:
            return mu
    return _dense_spectrum(H, N)


def _dense_spectrum(H: np.ndarray, N: int) -> np.ndarray:
    """``spectrum_X``'s dense route: ``cholesky_psd`` of the whole H, with
    T into H's buffer, S into C's and S^T S back into H's."""
    dim = H.shape[0]
    try:
        C, sigma = cholesky_psd(H)
    except NotPsdError as exc:
        raise ConeViolationError(
            f"sampled generator is outside the stability cone: {exc}"
        ) from exc
    rows = C.reshape(dim // (2 * N), 2, N, dim)
    T = np.matmul(rows[:, 0].reshape(-1, dim).T, rows[:, 1].reshape(-1, dim), out=H)
    S = np.subtract(T, T.T, out=C)
    if sigma:
        return skew_spectrum(S)
    return gram_spectrum(np.matmul(S.T, S, out=H), lambda: S)


def _schur_spectrum(H: np.ndarray, N: int) -> Optional[np.ndarray]:
    """``spectrum_X``'s p-first route, or None, with H untouched, when the
    p blocks or the Schur complement do not factor with no shift.

    In the (p..., q...) order H = [[P, R], [R^T, Q]], with P = blockdiag(P_j)
    and R = blockdiag(R_j) site-local and Q the m x m q-q part, m = dim / 2.
    Then C = [[L_P, 0], [X^T, L_q]], with P_j = L_j L_j^T (one stacked
    Cholesky), X_j = L_j^{-1} R_j (one stacked solve) and
    Sigma = (Q + Q^T) / 2 - blockdiag(X_j^T X_j) = L_q L_q^T
    (``cholesky_psd``, which keeps the shift ladder).  J is
    [[0, -I], [I, 0]] in this order, so S = C^T J C = [[A, -B], [B^T, 0]],
    with A_j = X_j L_j - (X_j L_j)^T and B = blockdiag(L_j^T) L_q, and
    S^T S = [[A^T A + B B^T, -A^T B], [-B^T A, B^T B]].  Flipping the sign of
    B is a similarity by diag(I, -I), so the Gram matrix is written with +B
    into H's buffer: B B^T and B^T B from syrk, exactly symmetric, the
    site-local A^T A added on the diagonal blocks and A^T B on the
    off-diagonal ones.  ``gram_spectrum`` reads the spectrum off it, and
    when it hands S to the SVD, S = [[A, B], [-B^T, 0]] is written into
    H's buffer in its place.
    """
    sites, m = H.shape[0] // (2 * N), H.shape[0] // 2
    # looked up in linalg, where perfbench/tracing.py counts its calls
    linalg.check_hermitian(H)
    # (site, q/p, band) along each axis
    blocks = H.reshape(sites, 2, N, sites, 2, N)
    site_blocks = np.einsum("jajb->jab", H.reshape(sites, 2 * N, sites, 2 * N))
    # counted through views, with no copy of the p rows; the symmetry check
    # covers the p columns
    if np.count_nonzero(blocks[:, 1]) != np.count_nonzero(site_blocks[:, N:]):
        raise ValueError("H has a p entry outside its site's diagonal block; "
                         "the clean term couples sites only through q")
    try:
        Lp = np.linalg.cholesky(site_blocks[:, N:, N:])
    except np.linalg.LinAlgError:
        return None
    X = np.linalg.solve(Lp, site_blocks[:, N:, :N])
    # the symmetric part of the q-q part, which is Q itself, bit for bit,
    # when H is exactly symmetric: Q's asymmetry, which check_hermitian
    # allows against max|H|, would meet cholesky_psd's check against the
    # smaller max|Sigma|
    Q = blocks[:, 0, :, :, 0]
    schur = np.empty((m, m))
    np.add(Q, Q.transpose(2, 3, 0, 1), out=schur.reshape(sites, N, sites, N))
    schur *= 0.5
    np.einsum("jajb->jab", schur.reshape(sites, N, sites, N))[...] -= (
        X.transpose(0, 2, 1) @ X)
    # an unshifted failure of the trailing block is a shift of the whole
    # Cholesky, which the dense route owns along with the cone verdict
    try:
        Lq, sigma = cholesky_psd(schur)
    except NotPsdError:
        return None
    if sigma:
        return None
    XL = X @ Lp
    A = XL - XL.transpose(0, 2, 1)
    # B into the Schur complement's buffer, the Gram matrix into H's
    B = np.matmul(Lp.transpose(0, 2, 1), Lq.reshape(sites, N, m),
                  out=schur.reshape(sites, N, m)).reshape(m, m)
    pp, pq, qp, qq = H[:m, :m], H[:m, m:], H[m:, :m], H[m:, m:]
    np.matmul(B, B.T, out=pp)
    np.einsum("jajb->jab", pp.reshape(sites, N, sites, N))[...] += (
        A.transpose(0, 2, 1) @ A)
    np.matmul(A.transpose(0, 2, 1), B.reshape(sites, N, m),
              out=pq.reshape(sites, N, m))
    qp[...] = pq.T
    np.matmul(B.T, B, out=qq)

    def skew():
        pp.fill(0.0)
        np.einsum("jajb->jab", pp.reshape(sites, N, sites, N))[...] = A
        pq[...] = B
        np.negative(B.T, out=qp)
        qq.fill(0.0)
        return H

    return gram_spectrum(H, skew)


def _sample_dim(params: ModelParams) -> int:
    """The dimension 2N * n_sites of a realization's H."""
    if params.N is None:
        raise ValueError("sampling requires both M and N")
    return 2 * params.N * params.n_sites


def draw_sample(params: ModelParams, child: np.random.SeedSequence,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """The quadrature-basis H of one realization on ``params.n_sites``
    sites, drawn from a spawned per-sample seed sequence: one call draws
    the standard normals x of Re A_j and Im A_j for every site j, shaped
    (n_sites, 2, M, N), and W_j = sqrt(b / (4N)) (x_j0 | -x_j1), which
    ``assemble_H`` adds to the clean term, in ``out`` when given."""
    _sample_dim(params)  # raises without the band counts
    N, M, n_sites = params.N, params.M, params.n_sites
    x = np.random.default_rng(child).normal(size=(n_sites, 2, M, N))
    W = np.concatenate((x[:, 0], -x[:, 1]), axis=2)
    W *= np.sqrt(params.b / (4.0 * N))
    return assemble_H(params, W, out)


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
    in row i of one (n_samples, 2N * n_sites) array, and one dim x dim H
    that every sample rewrites and ``spectrum_X`` uses as scratch.  A
    sample adds its couplings and what its route allocates (see the module
    docstring): at nu > 0 the (dim/2)^2 Schur complement and its factor,
    and numpy's copy of each LAPACK input (dim^2 for the eigensolve); at
    nu = 0 the dim^2 Cholesky factor, the copies of its q rows and p rows
    and numpy's copies of each LAPACK input.  The tail
    adds one block of whole rows (about 8192 values) that the histogram is
    summed over.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if bins < 1:
        raise ValueError("bins must be at least 1")
    if omega_max is not None and not 0 < omega_max < math.inf:
        raise ValueError(f"omega_max must be positive and finite, got {omega_max}")

    dim = _sample_dim(params)
    values = np.empty((n_samples, dim))
    H = np.empty((dim, dim))
    for i, row in enumerate(values):
        child = np.random.SeedSequence(seed, spawn_key=(i,))
        np.abs(spectrum_X(draw_sample(params, child, H), params), out=row)

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
