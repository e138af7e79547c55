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

Every zone mean goes through :mod:`bosondos.bzquad`, which also covers the
random-matrix limit nu = 0, so the solver has no special case for it.  The
solver's settings are the module constants below: Newton stops at a
relative mismatch of NEWTON_TOL within MAX_ITER damped steps (step factor
DAMPING, at most MAX_SIGN_LOSSES steps that only improve with Re p <= 0);
continuation starts at the real frequency Z_START_SCALE * max(b, nu) and
marches straight-line paths in PATH_STEPS initial steps, halving a step at
most MAX_PATH_REFINE times on a failed solve or a jump beyond JUMP_TOL.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import bzquad
from .bzquad import AccuracyWarning, KernelParams, QuadratureSpec
from .model import ModelParams

__all__ = [
    "SolverError",
    "BranchError",
    "CoherentPotential",
    "DosCurve",
    "cpa_residual",
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


@dataclass(frozen=True)
class CoherentPotential:
    """One solved coherent potential with its convergence metadata.

    ``residual`` is the relative mismatch of the self-consistency equation
    (see the module docstring); ``branch_tag`` records how the branch was
    reached, ``flags`` carry non-fatal diagnostics (sign losses, reseeds,
    unresolved jumps).
    """

    p: complex
    z: complex
    residual: float
    iterations: int
    branch_tag: str
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
    params_snapshot: Tuple[ModelParams, QuadratureSpec]
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


def _resolve_spec(spec: Optional[QuadratureSpec], params: ModelParams):
    if spec is not None:
        return spec
    return QuadratureSpec(points_per_dim=bzquad.default_points_per_dim(params.d))


def _inner_spec(spec: QuadratureSpec) -> QuadratureSpec:
    # Newton iterations never run the doubling check; only reported values do.
    if spec.convergence_check:
        return replace(spec, convergence_check=False)
    return spec


def default_eps(params: ModelParams) -> float:
    """Default spectral regularization: 1e-3 of the dominant frequency scale."""
    scale = params.b if params.is_rmt else params.nu
    return 1e-3 * scale


def cpa_residual(
    p: complex, z: complex, params: ModelParams, spec: Optional[QuadratureSpec] = None
) -> complex:
    """Mismatch 1/b - a/p + I_cpa(z, p); zero exactly on a solution."""
    if p == 0:
        raise ValueError("the self-consistency equation is singular at p = 0")
    if params.b == 0:
        raise ValueError("b = 0 has no self-consistency equation (pure system)")
    spec = _resolve_spec(spec, params)
    kp = KernelParams(z=complex(z), p=complex(p), nu=params.nu)
    return 1.0 / params.b - params.a / kp.p + bzquad.I_cpa(kp, params.d, spec)


def _G_terms(p: complex, z: complex, params: ModelParams, spec: QuadratureSpec):
    """Cleared residual G = p - a*b + b*p*I, its p-derivative, and its scale."""
    a, b = params.a, params.b
    kp = KernelParams(z=z, p=p, nu=params.nu)
    I, dI = bzquad.I_cpa_and_derivative(kp, params.d, spec)
    G = p - a * b + b * p * I
    dG = 1.0 + b * I + b * p * dI
    scale = a * b + abs(p) * (1.0 + b * abs(I))
    return G, dG, scale


def _accept_branch(p, z, params, spec, flags):
    """Reject converged roots that violate physical-branch invariants.

    The physical branch keeps Re p > 0 (up to rounding at branch pinches,
    where the true value approaches 0+) and, because g is the resolvent of
    a spectral measure on the imaginary axis, Re g > 0 for Re z > 0.  Roots
    failing either test decisively belong to another sheet.
    """
    if p.real < -1e-9 * abs(p):
        raise BranchError(
            f"converged to a root with Re p < 0 at z={z}: p={p:.6g}"
        )
    if p.real <= 0:
        flags.append("re_p_nonpositive")
    g = _g_from_p(p, z, params, spec)
    if g.real < -1e-9 * abs(g):
        raise BranchError(
            f"converged to a root with negative spectral weight at z={z}: "
            f"g={g:.6g}"
        )


def _newton(z, p0, params, spec):
    """Damped Newton on the cleared residual; returns (p, residual, iters, flags)."""
    p = complex(p0)
    if p == 0:
        raise ValueError("seed p must be nonzero")
    G, dG, scale = _G_terms(p, z, params, spec)
    flags: List[str] = []
    sign_losses = 0
    for it in range(MAX_ITER):
        if abs(G) <= NEWTON_TOL * scale:
            _accept_branch(p, z, params, spec, flags)
            return p, abs(G) / scale, it, tuple(flags)
        if dG == 0:
            raise SolverError(f"vanishing derivative at p={p}, z={z}", last_p=p)
        step = -G / dG
        lam = 1.0
        accepted = False
        fallback = None
        while lam >= 1e-12:
            pn = p + lam * step
            if pn != 0:
                Gn, dGn, scale_n = _G_terms(pn, z, params, spec)
                if abs(Gn) < abs(G):
                    if pn.real > 0:
                        p, G, dG, scale = pn, Gn, dGn, scale_n
                        accepted = True
                        break
                    if fallback is None:
                        fallback = (pn, Gn, dGn, scale_n)
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
            p, G, dG, scale = fallback
    if abs(G) <= NEWTON_TOL * scale:
        _accept_branch(p, z, params, spec, flags)
        return p, abs(G) / scale, MAX_ITER, tuple(flags)
    raise SolverError(
        f"no convergence after {MAX_ITER} iterations at z={z}: "
        f"relative residual {abs(G) / scale:.3e}",
        last_p=p,
    )


def _march(z_from, p_from, z_to, params, spec, initial_steps=1):
    """Continue the branch along the straight segment z_from -> z_to.

    Adaptive stepping: on solver failure or a jump larger than JUMP_TOL the
    step is halved (bounded refinement); an unresolvable jump is flagged but
    accepted.  Returns (p, residual, iterations, flags) at z_to.
    """
    z0, z1 = complex(z_from), complex(z_to)
    p, resid, its = complex(p_from), 0.0, 0
    flags: List[str] = []
    dt0 = 1.0 / initial_steps
    dt_min = 0.5**MAX_PATH_REFINE / max(initial_steps, PATH_STEPS)
    t, dt = 0.0, dt0
    while t < 1.0:
        tn = min(1.0, t + dt)
        zt = (1.0 - tn) * z0 + tn * z1
        try:
            pn, resid_n, its_n, fl = _newton(zt, p, params, spec)
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
        p, resid, its = pn, resid_n, its_n
        flags.extend(fl)
        t = tn
        dt = min(dt * 1.5, dt0)
    return p, resid, its, flags


def solve_p(
    z: complex,
    params: ModelParams,
    spec: Optional[QuadratureSpec] = None,
    seed_p: Optional[complex] = None,
) -> CoherentPotential:
    """Solve the self-consistency equation for p(z) on the physical branch.

    Without a seed the branch is pinned by continuation from the large-z
    asymptote p = a*b at z_start = Z_START_SCALE * max(b, nu).  With a seed,
    a single damped Newton run is performed from it.
    """
    z = complex(z)
    if not z.real > 0:
        raise ValueError(
            "solve_p requires Re z > 0; use g_of_z, which maps the left "
            "half-plane through the oddness of g"
        )
    spec = _resolve_spec(spec, params)
    if params.b == 0:
        return CoherentPotential(
            p=0j, z=z, residual=0.0, iterations=0,
            branch_tag="pure system (b = 0): p = 0",
        )
    spec_i = _inner_spec(spec)
    if seed_p is not None:
        p, resid, its, flags = _newton(z, complex(seed_p), params, spec_i)
        return CoherentPotential(
            p=p, z=z, residual=resid, iterations=its,
            branch_tag=f"newton from seed p={complex(seed_p):.6g}",
            flags=flags,
        )
    z_start = complex(Z_START_SCALE * max(params.b, params.nu))
    p0 = params.a * params.b
    p, resid, its, flags0 = _newton(z_start, p0, params, spec_i)
    if z != z_start:
        p, resid, its, flags1 = _march(
            z_start, p, z, params, spec_i, initial_steps=PATH_STEPS
        )
        flags = list(flags0) + list(flags1)
    else:
        flags = list(flags0)
    return CoherentPotential(
        p=p, z=z, residual=resid, iterations=its,
        branch_tag=f"continuation from z_start={z_start.real:.6g} (seed p=a*b)",
        flags=tuple(flags),
    )


def continuation_sweep(
    omega_grid: Sequence[float],
    eps: float,
    params: ModelParams,
    spec: Optional[QuadratureSpec] = None,
) -> List[CoherentPotential]:
    """Solve p along z = eps + i*omega for every omega, seeding each solve
    from its predecessor.

    The grid is marched in the order given (so a reversed grid sweeps
    downward); the first point is reached by full continuation from the
    asymptotic regime.  Points where refinement fails are flagged and the
    sweep continues from a fresh reseed.
    """
    omegas = np.asarray(omega_grid, dtype=float)
    if omegas.ndim != 1 or omegas.size == 0:
        raise ValueError("omega_grid must be a nonempty 1-d sequence")
    if eps <= 0:
        raise ValueError("eps must be positive")
    spec = _resolve_spec(spec, params)
    if params.b == 0:
        return [
            CoherentPotential(
                p=0j, z=complex(eps, w), residual=0.0, iterations=0,
                branch_tag="pure system (b = 0): p = 0",
            )
            for w in omegas
        ]
    spec_i = _inner_spec(spec)
    out: List[CoherentPotential] = []
    cp = solve_p(complex(eps, omegas[0]), params, spec)
    out.append(cp)
    for w in omegas[1:]:
        z_next = complex(eps, w)
        try:
            p, resid, its, flags = _march(cp.z, cp.p, z_next, params, spec_i)
            cp = CoherentPotential(
                p=p, z=z_next, residual=resid, iterations=its,
                branch_tag=f"continued from z={cp.z:.6g}", flags=tuple(flags),
            )
        except (SolverError, BranchError) as exc:
            try:
                fresh = solve_p(z_next, params, spec)
                cp = replace(
                    fresh,
                    flags=fresh.flags + (f"reseeded after failure: {exc}",),
                )
            except (SolverError, BranchError) as exc2:
                cp = CoherentPotential(
                    p=cp.p, z=z_next, residual=math.inf, iterations=0,
                    branch_tag="unconverged",
                    flags=(f"unconverged: {exc2}",),
                )
        out.append(cp)
    return out


def _g_from_p(p: complex, z: complex, params: ModelParams, spec: QuadratureSpec):
    return bzquad.I_g(KernelParams(z=z, p=p, nu=params.nu), params.d, spec)


def g_of_z(
    z: complex,
    params: ModelParams,
    spec: Optional[QuadratureSpec] = None,
) -> complex:
    """Averaged resolvent trace at z; the left half-plane is reached through
    the exact oddness g(z) = -g(-z)."""
    z = complex(z)
    if z.real == 0:
        raise ValueError("g is discontinuous across the imaginary axis; "
                         "evaluate at Re z = +/- eps instead")
    if z.real < 0:
        return -g_of_z(-z, params, spec)
    spec = _resolve_spec(spec, params)
    cp = solve_p(z, params, spec)
    return _g_from_p(cp.p, z, params, spec)


def dos_curve(
    omega_grid: Sequence[float],
    eps: float,
    params: ModelParams,
    spec: Optional[QuadratureSpec] = None,
    richardson: bool = False,
) -> DosCurve:
    """Frequency density rho(omega) = Re g(eps + i*omega) / pi on the grid.

    ``richardson=True`` removes the leading O(eps) broadening by combining
    sweeps at eps and eps/2.  The zero-frequency point mass max(0, 1 - a) is
    reported separately, and only in the random-matrix limit (nu = 0, a < 1)
    where the rank deficiency of the couplings enforces it; its pole
    (1 - a)/z is subtracted from g at each eps, so rho does not carry it.
    """
    omegas = np.asarray(omega_grid, dtype=float)
    if omegas.size and omegas.min() <= 0:
        raise ValueError("omega_grid must be strictly positive")
    spec = _resolve_spec(spec, params)
    dirac = max(0.0, 1.0 - params.a) if (params.is_rmt and params.a < 1) else 0.0

    def sweep_rho(eps_val):
        sweep = continuation_sweep(omegas, eps_val, params, spec)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", AccuracyWarning)
            g = np.array(
                [_g_from_p(cp.p, cp.z, params, spec) for cp in sweep],
                dtype=complex,
            )
        notes = [str(w.message) for w in caught if issubclass(w.category, AccuracyWarning)]
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
        params_snapshot=(params, spec),
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


def find_gap_edge(
    params: ModelParams,
    spec: Optional[QuadratureSpec] = None,
    eps: Optional[float] = None,
    threshold: float = 1e-6,
    omega_lo: Optional[float] = None,
    omega_hi: Optional[float] = None,
    rel_tol: float = 1e-4,
) -> float:
    """Locate the low-frequency spectral-gap edge by bisection on
    rho(omega) <= threshold.

    Each query solves the branch afresh, so the routine works at the very
    small default regularization (1e-9 of the dominant scale) needed to
    resolve an exponentially clean gap.  Returns 0.0 when there is no gap.
    """
    scale = max(params.b, params.nu)
    eps = 1e-9 * scale if eps is None else eps
    spec = _resolve_spec(spec, params)

    def rho_at(w):
        cp = solve_p(complex(eps, w), params, spec)
        return _g_from_p(cp.p, cp.z, params, spec).real / np.pi

    lo = 1e-6 * scale if omega_lo is None else omega_lo
    if rho_at(lo) > threshold:
        return 0.0
    hi = 2.0 * lo
    hi_cap = 100.0 * scale if omega_hi is None else omega_hi
    while rho_at(hi) <= threshold:
        hi *= 2.0
        if hi > hi_cap:
            raise BranchError(
                f"no density above threshold below omega={hi_cap:g}; "
                "is the spectrum empty?"
            )
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if rho_at(mid) <= threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
