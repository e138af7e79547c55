"""Self-consistent coherent-potential solver and density-of-states curves.

The disorder-averaged resolvent trace g(z) of the model is obtained from a
single complex "coherent potential" p(z) solving

    1/b = a/p - mean_k[ (p + nu*(1 - dlt_k/2)) / D(k; z, p) ],

with D the propagator denominator of :mod:`bosondos.bzquad`.  The physical
branch is defined by continuation from the large-z asymptote p -> a*b, where
the resolvent must decay like 1/z with positive spectral weight.  The
frequency density follows from rho(omega) = Re g(eps + i*omega) / pi at a
small regularization eps > 0.

Numerics note: Newton iterates on the cleared form

    G(p) = p - a*b + b * p * I_cpa(z, p)

which is equivalent to the equation above for p != 0 but free of the
catastrophic 1/b vs a/p cancellation at weak disorder.  Convergence and the
reported ``residual`` are measured relative to the natural scale of G.
The zone means of the converged Newton step also give g = mean_k z/D at the
solution, so a solved point costs no further zone mean.  The zone grid is
the plain int ``kgrid`` (points per dimension, default
``bzquad.default_points_per_dim``).  Only ``dos_curve(..., check=True)``
checks it: one zone mean per reported point on the doubled grid, compared
with the carried g at relative tolerance DOUBLING_TOL; the doubled grid's
value is reported, and each disagreement is one of the curve's notes.

Every zone mean goes through :mod:`bosondos.bzquad`, which also covers the
random-matrix limit nu = 0, so the solver has no special case for it.  The
solver's settings are the module constants below: Newton stops at a
relative mismatch of NEWTON_TOL within MAX_ITER damped steps (step factor
DAMPING, at most MAX_SIGN_LOSSES steps that only improve with Re p <= 0);
continuation starts at the real frequency Z_START_SCALE * max(b, nu) and
marches straight-line paths in PATH_STEPS initial steps, halving a step at
most MAX_PATH_REFINE times on a failed solve or a jump beyond JUMP_TOL.
A sweep along z = eps + i*omega is a predictor-corrector continuation: the
predictor extrapolates p through the last two or three converged points
(none after a reseed or an unconverged point), and Newton corrects it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import bzquad
from .bzquad import KernelParams
from .model import ModelParams

__all__ = [
    "SolverError",
    "BranchError",
    "CoherentPotential",
    "DosCurve",
    "solve_p",
    "continuation_sweep",
    "g_of_z",
    "dos_curve",
    "default_eps",
    "rmt_scaled_a1",
    "find_gap_edge",
]


class SolverError(RuntimeError):
    """Newton iteration failed; ``last_p`` carries the final iterate."""

    def __init__(self, message, last_p=None):
        super().__init__(message)
        self.last_p = last_p


class BranchError(RuntimeError):
    """No admissible physical-branch solution (e.g. persistent Re p <= 0)."""


NEWTON_TOL = 1e-12
MAX_ITER = 100
DAMPING = 0.5
Z_START_SCALE = 10.0  # >= 10 starts the continuation deep in the asymptotic regime
PATH_STEPS = 8
MAX_PATH_REFINE = 20
JUMP_TOL = 0.5
MAX_SIGN_LOSSES = 3
DOUBLING_TOL = 1e-9  # relative tolerance of the grid-doubling check


class CoherentPotential(NamedTuple):
    """One solved coherent potential with its convergence metadata.

    ``residual`` is the relative mismatch of the self-consistency equation
    (see the module docstring); ``branch_tag`` records how the branch was
    reached, ``flags`` carry non-fatal diagnostics (sign losses, reseeds,
    unresolved jumps).  ``g`` is the resolvent trace z*mean_k 1/D at (z, p)
    on the solve's grid: read off the converged Newton step's zone means, or
    a zone mean of its own where no Newton solve ran (b = 0, and an
    unconverged point at its stale p).  A named tuple, because the sweep
    builds one per omega point.
    """

    p: complex
    z: complex
    residual: float
    iterations: int
    branch_tag: str
    g: complex
    flags: Tuple[str, ...] = ()


@dataclass(frozen=True)
class DosCurve:
    """Sampled frequency density with the zero-frequency point mass kept apart.

    ``rho`` is the two-sided density (even in omega, total mass 1 over the
    real line including ``dirac_mass_at_zero``), sampled on ``omegas > 0``.
    """

    omegas: np.ndarray
    rho: np.ndarray
    p: np.ndarray
    residuals: np.ndarray
    dirac_mass_at_zero: float
    eps: float
    notes: Tuple[str, ...] = ()

    @property
    def normalization(self) -> float:
        """Two-sided mass 2 * int rho + point mass, ~1 when the grid covers
        the support.  The integral runs over omega ascending, whatever the
        grid's order."""
        order = np.argsort(self.omegas, kind="stable")
        return 2.0 * float(np.trapezoid(self.rho[order], self.omegas[order])) + float(
            self.dirac_mass_at_zero
        )


def default_eps(params: ModelParams) -> float:
    """Default spectral regularization: 1e-3 of the dominant frequency scale."""
    scale = params.b if params.is_rmt else params.nu
    return 1e-3 * scale


def _G_terms(p: complex, z: complex, params: ModelParams, n: int):
    """Cleared residual G = p - a*b + b*p*I, its p-derivative, its scale,
    and g at (z, p), all from one pair of zone means on the n^d grid."""
    a, b = params.a, params.b
    # looked up on the module at each call, where a tracer can wrap it
    I, dI, g = bzquad.I_cpa_and_derivative(KernelParams(z, p, params.nu), params.d, n)
    G = p - a * b + b * p * I
    dG = 1.0 + b * I + b * p * dI
    scale = a * b + abs(p) * (1.0 + b * abs(I))
    return G, dG, scale, g


def _accept_branch(p, z, g, flags):
    """Reject converged roots that violate physical-branch invariants.

    The physical branch keeps Re p > 0 (up to rounding at branch pinches,
    where the true value approaches 0+) and, because g is the resolvent of
    a spectral measure on the imaginary axis, Re g > 0 for Re z > 0.  Roots
    failing either test decisively belong to another sheet.  ``g`` comes
    from the converged step's zone means, so the test takes none of its own.
    """
    if p.real < -1e-9 * abs(p):
        raise BranchError(
            f"converged to a root with Re p < 0 at z={z}: p={p:.6g}"
        )
    if p.real <= 0:
        flags.append("re_p_nonpositive")
    if g.real < -1e-9 * abs(g):
        raise BranchError(
            f"converged to a root with negative spectral weight at z={z}: "
            f"g={g:.6g}"
        )


def _newton(z, p0, params, n):
    """Damped Newton on the cleared residual; returns (p, g, residual, iters, flags)."""
    p = complex(p0)
    if p == 0:
        raise ValueError("seed p must be nonzero")
    G, dG, scale, g = _G_terms(p, z, params, n)
    flags: List[str] = []
    sign_losses = 0
    it = 0
    while abs(G) > NEWTON_TOL * scale:
        if it == MAX_ITER:
            raise SolverError(
                f"no convergence after {MAX_ITER} iterations at z={z}: "
                f"relative residual {abs(G) / scale:.3e}",
                last_p=p,
            )
        it += 1
        if dG == 0:
            raise SolverError(f"vanishing derivative at p={p}, z={z}", last_p=p)
        step = -G / dG
        lam = 1.0
        accepted = False
        fallback = None
        while lam >= 1e-12:
            pn = p + lam * step
            if pn != 0:
                Gn, dGn, scale_n, gn = _G_terms(pn, z, params, n)
                if abs(Gn) < abs(G):
                    if pn.real > 0:
                        p, G, dG, scale, g = pn, Gn, dGn, scale_n, gn
                        accepted = True
                        break
                    if fallback is None:
                        fallback = (pn, Gn, dGn, scale_n, gn)
            lam *= DAMPING
        if not accepted:
            if fallback is None:
                raise SolverError(
                    f"damped Newton stalled at z={z}: |G|={abs(G):.3e} "
                    f"(relative {abs(G) / scale:.3e})",
                    last_p=p,
                )
            # only improving steps had Re p <= 0
            sign_losses += 1
            if sign_losses > MAX_SIGN_LOSSES:
                raise BranchError(
                    f"persistent loss of Re p > 0 at z={z} (last p={fallback[0]})"
                )
            flags.append("re_p_nonpositive_step")
            p, G, dG, scale, g = fallback
    _accept_branch(p, z, g, flags)
    return p, g, abs(G) / scale, it, tuple(flags)


def _march(z_from, p_from, z_to, params, n, initial_steps=1, seed=None):
    """Continue the branch along the straight segment z_from -> z_to.

    Adaptive stepping: on solver failure or a jump larger than JUMP_TOL the
    step is halved (bounded refinement); an unresolvable jump is flagged but
    accepted.  ``seed`` replaces p_from as the Newton start of the first step
    only; the jump test compares with p_from all the same, and a halving
    restarts from it.  Returns (p, g, residual, iterations, flags) at z_to;
    the last step lands on z_to exactly, so g is the zone mean there.
    """
    z0, z1 = complex(z_from), complex(z_to)
    p, g, resid, its = complex(p_from), None, 0.0, 0
    flags: List[str] = []
    dt0 = 1.0 / initial_steps
    dt_min = 0.5**MAX_PATH_REFINE / max(initial_steps, PATH_STEPS)
    t, dt = 0.0, dt0
    while t < 1.0:
        tn = min(1.0, t + dt)
        zt = (1.0 - tn) * z0 + tn * z1
        start, seed = p if seed is None else seed, None
        try:
            pn, gn, resid_n, its_n, fl = _newton(zt, start, params, n)
        except (SolverError, BranchError):
            if dt * 0.5 < dt_min:
                raise
            dt *= 0.5
            continue
        if abs(pn - p) > JUMP_TOL * max(1.0, abs(p)):
            if dt * 0.5 >= dt_min:
                dt *= 0.5
                continue
            flags.append(
                f"branch_jump at z={zt:.6g}: |dp|={abs(pn - p):.3e} "
                f"with path step exhausted"
            )
        p, g, resid, its = pn, gn, resid_n, its_n
        flags.extend(fl)
        t = tn
        dt = min(dt * 1.5, dt0)
    return p, g, resid, its, flags


def solve_p(
    z: complex,
    params: ModelParams,
    kgrid: Optional[int] = None,
) -> CoherentPotential:
    """Solve the self-consistency equation for p(z) on the physical branch.

    The branch is pinned by continuation from the large-z asymptote p = a*b
    at z_start = Z_START_SCALE * max(b, nu).  Without ``kgrid`` the grid is
    ``default_points_per_dim``'s, which a lattice above d = 3 lacks
    (ValueError).  At b = 0 there is no equation to solve, p = 0, and g is
    the clean resolvent's zone mean.
    """
    z = complex(z)
    if not z.real > 0:
        raise ValueError(
            "solve_p requires Re z > 0; use g_of_z, which maps the left "
            "half-plane through the oddness of g"
        )
    n = bzquad.default_points_per_dim(params.d, params.nu, kgrid)
    if params.b == 0:
        return CoherentPotential(
            p=0j, z=z, residual=0.0, iterations=0,
            branch_tag="pure system (b = 0): p = 0",
            g=bzquad.I_g(KernelParams(z, 0j, params.nu), params.d, n),
        )
    z_start = complex(Z_START_SCALE * max(params.b, params.nu))
    p0 = params.a * params.b
    p, g, resid, its, flags0 = _newton(z_start, p0, params, n)
    if z != z_start:
        p, g, resid, its, flags1 = _march(
            z_start, p, z, params, n, initial_steps=PATH_STEPS
        )
        flags = list(flags0) + list(flags1)
    else:
        flags = list(flags0)
    return CoherentPotential(
        p=p, z=z, residual=resid, iterations=its,
        branch_tag=f"continuation from z_start={z_start.real:.6g} (seed p=a*b)",
        g=g, flags=tuple(flags),
    )


def _extrapolated_seed(history, z: complex) -> Optional[complex]:
    """Newton start at z: p extrapolated through the last two or three
    converged (z, p) of the sweep (Lagrange, in Newton's form); None from
    fewer points, where two of them share z (a grid that repeats or revisits
    an omega) or where the extrapolation leaves the half-plane Re p > 0."""
    if len(history) < 2:
        return None
    (z1, p1), (z2, p2) = history[-2:]
    if z1 == z2:
        return None
    d21 = (p2 - p1) / (z2 - z1)
    seed = p2 + d21 * (z - z2)
    if len(history) > 2:
        z0, p0 = history[-3]
        if z0 in (z1, z2):
            return None
        d10 = (p1 - p0) / (z1 - z0)
        seed += (d21 - d10) / (z2 - z0) * (z - z2) * (z - z1)
    return seed if seed.real > 0 else None


def continuation_sweep(
    omega_grid: Sequence[float],
    eps: float,
    params: ModelParams,
    kgrid: Optional[int] = None,
) -> List[CoherentPotential]:
    """Solve p along z = eps + i*omega for every omega, marching each solve
    from its predecessor.

    The grid is marched in the order given (so a reversed grid sweeps
    downward); the first point is reached by full continuation from the
    asymptotic regime.  Each later point's Newton run starts from p
    extrapolated in z through the last three points converged since the
    start, the last reseed or the last unconverged point, or through two
    where only two have.  With fewer, or where the extrapolation has
    Re p <= 0, it starts from the predecessor's p, as every halved step
    does.  Points where refinement fails are flagged, keep their
    predecessor's p (and take g there), and the sweep continues from a
    fresh reseed.
    """
    omegas = np.asarray(omega_grid, dtype=float)
    if omegas.ndim != 1 or omegas.size == 0:
        raise ValueError("omega_grid must be a nonempty 1-d sequence")
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = bzquad.default_points_per_dim(params.d, params.nu, kgrid)
    if params.b == 0:
        return [solve_p(complex(eps, w), params, n) for w in omegas]
    out: List[CoherentPotential] = []
    cp = solve_p(complex(eps, omegas[0]), params, n)
    out.append(cp)
    history = [(cp.z, cp.p)]  # converged points since the last (re)start
    for w in omegas[1:]:
        z_next = complex(eps, w)
        try:
            p, g, resid, its, flags = _march(
                cp.z, cp.p, z_next, params, n,
                seed=_extrapolated_seed(history, z_next),
            )
            cp = CoherentPotential(
                p=p, z=z_next, residual=resid, iterations=its,
                branch_tag="continued along the sweep", g=g, flags=tuple(flags),
            )
            history = history[-2:] + [(z_next, p)]
        except (SolverError, BranchError) as exc:
            try:
                fresh = solve_p(z_next, params, n)
                cp = fresh._replace(
                    flags=fresh.flags + (f"reseeded after failure: {exc}",),
                )
                history = [(z_next, cp.p)]
            except (SolverError, BranchError) as exc2:
                cp = CoherentPotential(
                    p=cp.p, z=z_next, residual=math.inf, iterations=0,
                    branch_tag="unconverged",
                    g=bzquad.I_g(KernelParams(z_next, cp.p, params.nu), params.d, n),
                    flags=(f"unconverged: {exc2}",),
                )
                history = []
        out.append(cp)
    return out


def g_of_z(
    z: complex,
    params: ModelParams,
    kgrid: Optional[int] = None,
) -> complex:
    """Averaged resolvent trace at z; the left half-plane is reached through
    the exact oddness g(z) = -g(-z)."""
    z = complex(z)
    if z.real == 0:
        raise ValueError("g is discontinuous across the imaginary axis; "
                         "evaluate at Re z = +/- eps instead")
    if z.real < 0:
        return -g_of_z(-z, params, kgrid)
    return solve_p(z, params, kgrid).g


def dos_curve(
    omega_grid: Sequence[float],
    eps: float,
    params: ModelParams,
    kgrid: Optional[int] = None,
    richardson: bool = False,
    check: bool = False,
) -> DosCurve:
    """Frequency density rho(omega) = Re g(eps + i*omega) / pi on the grid.

    ``richardson=True`` removes the leading O(eps) broadening by combining
    sweeps at eps and eps/2.  ``check=True`` takes g at every solved point
    on the doubled grid instead, and notes each point where it differs from
    the carried g by more than DOUBLING_TOL relative.  The zero-frequency
    point mass max(0, 1 - a) is reported separately, and only in the
    random-matrix limit (nu = 0, a < 1) where the rank deficiency of the
    couplings enforces it; its pole (1 - a)/z is subtracted from g at each
    eps, so rho does not carry it.
    """
    omegas = np.asarray(omega_grid, dtype=float)
    if omegas.size and omegas.min() <= 0:
        raise ValueError("omega_grid must be strictly positive")
    n = bzquad.default_points_per_dim(params.d, params.nu, kgrid)
    dirac = max(0.0, 1.0 - params.a) if (params.is_rmt and params.a < 1) else 0.0

    def sweep_rho(eps_val):
        sweep = continuation_sweep(omegas, eps_val, params, n)
        g = np.array([cp.g for cp in sweep], dtype=complex)
        notes = []
        if check:
            for i, cp in enumerate(sweep):
                g[i] = g2 = bzquad.I_g(KernelParams(cp.z, cp.p, params.nu), params.d, 2 * n)
                if abs(cp.g - g2) > DOUBLING_TOL * max(abs(g2), np.finfo(float).tiny):
                    notes.append(
                        f"grid-doubling check failed: |I_n - I_2n| = {abs(cp.g - g2):.3e} "
                        f"exceeds rel_tol={DOUBLING_TOL:g} * |I_2n| at n={n}, d={params.d}")
        if dirac:
            # the point mass is the pole dirac/z of g; keep its broadened
            # Lorentzian out of rho so the mass is booked once
            g -= dirac / np.array([cp.z for cp in sweep], dtype=complex)
        return sweep, g.real / np.pi, notes

    sweep, rho, notes = sweep_rho(eps)
    if richardson:
        _, rho_half, notes_half = sweep_rho(0.5 * eps)
        rho = 2.0 * rho_half - rho
        notes += notes_half
        notes.append(f"richardson extrapolation from eps={eps:g} and eps/2")
    if rho.size and rho.min() < -1e-6:
        raise BranchError(
            f"negative density {rho.min():.3e} beyond tolerance: "
            "the solved branch is not the physical one"
        )
    for cp in sweep:
        for fl in cp.flags:
            notes.append(f"omega={cp.z.imag:g}: {fl}")
    return DosCurve(
        omegas=omegas,
        rho=rho,
        p=np.array([cp.p for cp in sweep], dtype=complex),
        residuals=np.array([cp.residual for cp in sweep], dtype=float),
        dirac_mass_at_zero=dirac,
        eps=eps,
        notes=tuple(notes),
    )


_A1_EDGE = 1.5 * math.sqrt(3.0)  # support edge of the scaled a = 1 density


def _a1_scaled_root(x: float) -> complex:
    """Physical root of gt^3 - gt + 1/x = 0 for real x > 0.

    Inside the support (x < 3*sqrt(3)/2) the root is the complex one with
    Im gt > 0 (nonnegative density); outside it is the smallest positive
    real root, the continuation of the large-x decay gt ~ 1/x.
    """
    roots = np.roots([1.0, 0.0, -1.0, 1.0 / x])
    tol = 1e-9 * max(1.0, float(np.abs(roots).max()))
    complex_roots = roots[roots.imag > tol]
    if complex_roots.size:
        return complex(complex_roots[np.argmax(complex_roots.imag)])
    real_roots = np.sort(roots.real[roots.real > 0])
    if real_roots.size == 0:
        raise BranchError(f"no admissible root of the scaled cubic at x={x}")
    return complex(real_roots[0])


def rmt_scaled_a1(x_grid: Sequence[float]) -> np.ndarray:
    """Scaled density of the critical-ratio (a = 1) random-matrix limit.

    In units where the disorder strength is scaled out, the density at
    scaled frequency x > 0 is Im(gt(x)) / pi with gt the physical root of
    gt^3 - gt + 1/x = 0; it diverges like x**(-1/3) at small x and vanishes
    beyond the edge x = 3*sqrt(3)/2.
    """
    x = np.asarray(x_grid, dtype=float)
    if x.size == 0:
        return np.zeros(0)
    if np.any(~np.isfinite(x)) or np.any(x <= 0):
        raise ValueError("x_grid must contain finite positive values")
    flat = np.array([_a1_scaled_root(xi).imag / np.pi for xi in x.ravel()])
    return flat.reshape(x.shape)


def find_gap_edge(params: ModelParams) -> float:
    """Locate the low-frequency spectral-gap edge by bisection on
    rho(omega) <= 1e-6, to 1e-4 relative, on the default grid.

    With scale = max(b, nu), the search starts at omega = 1e-6 * scale and
    doubles up to 100 * scale.  Each query solves the branch afresh, so the
    routine works at the very small regularization (1e-9 * scale) needed to
    resolve an exponentially clean gap.  Returns 0.0 when there is no gap.
    """
    scale = max(params.b, params.nu)
    eps = 1e-9 * scale
    threshold = 1e-6

    def rho_at(w):
        return g_of_z(complex(eps, w), params).real / np.pi

    lo = 1e-6 * scale
    if rho_at(lo) > threshold:
        return 0.0
    hi = 2.0 * lo
    hi_cap = 100.0 * scale
    while rho_at(hi) <= threshold:
        hi *= 2.0
        if hi > hi_cap:
            raise BranchError(
                f"no density above threshold below omega={hi_cap:g}; "
                "is the spectrum empty?"
            )
    while hi - lo > 1e-4 * hi:
        mid = 0.5 * (lo + hi)
        if rho_at(mid) <= threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
