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
solution, so a solved point costs no further zone mean.  The zone mean
runs over the L^d momenta of the lattice ``params.extents`` = (L, ..., L)
that the Monte Carlo oracle samples, or the default grid that stands in
for the infinite lattice (``bzquad.points_per_dim``).  Only
``dos_curve(..., check=True)`` checks it: one zone mean per reported point
on the (2L)^d grid, compared with the carried g at relative tolerance
DOUBLING_TOL; the doubled grid's value is reported, and each disagreement
is one of the curve's notes.

Every zone mean goes through :mod:`bosondos.bzquad`, which also covers the
random-matrix limit nu = 0, so the solver has no special case for it, nor
for b = 0, where Newton starts at the root p = 0.  The solver's settings are
the module constants below: Newton stops at a relative mismatch of
NEWTON_TOL within MAX_ITER damped steps (step factor DAMPING, taken until
the trial p has Re(p + nu) > 0 and lowers the mismatch); continuation
starts at the real frequency Z_START_SCALE * max(b, nu) and marches each
straight-line path, the first point's too, in one step, halved on a failed
step down to 2^-23 (0.5**MAX_PATH_REFINE) of the path and grown 1.5x when
solved.  A step fails where Newton does or where its root fails
``_on_branch``, the one test of a converged root.  So every point the
solver returns is a converged root on the physical branch; a point it
cannot reach raises SolverError (BranchError, a subclass, off the branch),
and a sweep names the omega of that point.
A sweep along z = eps + i*omega is a predictor-corrector continuation
(Allgower & Georg, Introduction to Numerical Continuation Methods, 2003) in
two parts, with one predictor: the tangent dp/dz = -(dG/dz)/(dG/dp), which
the zone means of every converged Newton step give along with g.  On a
skeleton of the grid, points at least SKELETON_STEP * max(b, nu) apart in
omega, it runs point by point: each continuation step starts from
p + (dp/dz)*dz of the last solved point, and Newton corrects it.  Every
other point is a lane: its predictor is the cubic Hermite interpolant of p
and dp/dz at its two skeleton neighbours, and undamped Newton corrects all
lanes at once, one array call of the zone means per step.  A lane whose
means are not finite, that has not converged in five steps, or whose root
fails ``_on_branch`` against its predictor is solved point by point from
its left skeleton neighbour instead, so errors come from that path alone.
A sweep returns arrays in grid order and one summary tag.
SKELETON_STEP = 0.12 came from fine curves (steps of 0.0025-0.005,
eps = 1e-3) at d = 1, 2, 3 (a = 0.75, b = 0.63, nu = 1) and nu = 0
(a = 0.75, b = 1), best CPU time of 40 on a 2-core Xeon: 0.08 /
0.12 / 0.16 took 4.2 / 3.3 / 3.3 ms at d = 1 (1200 points), 23.6 / 23.9 /
24.0 ms at d = 2, 62 / 67 / 72 ms at d = 3 and 2.4 / 2.3 / 2.9 ms at
nu = 0 (600 points each), and 13.6 / 12.0 / 13.1 ms on 60 points at d = 3
(steps of 0.05).  Wider spacing costs each lane more Newton steps (2.7 /
3.0 / 3.2 zone means per lane at d = 1), and a d = 3 lane costs 0.6-0.8 of
a scalar mean.  A grid whose step is at least the spacing has no lanes.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from . import bzquad
from .model import ModelParams

__all__ = [
    "SolverError",
    "BranchError",
    "CoherentPotential",
    "DosCurve",
    "solve_p",
    "continuation_sweep",
    "dos_curve",
    "default_eps",
    "rmt_scaled_a1",
    "find_gap_edge",
]


class SolverError(RuntimeError):
    """Newton or the path continuation failed to reach a point."""


class BranchError(SolverError):
    """A root or density off the physical branch: a root that fails
    ``_on_branch`` at the smallest path step, or a curve's density below
    its tolerance."""


NEWTON_TOL = 1e-12
MAX_ITER = 100
DAMPING = 0.5
Z_START_SCALE = 10.0  # >= 10 starts the continuation deep in the asymptotic regime
MAX_PATH_REFINE = 23
JUMP_TOL = 0.5
DOUBLING_TOL = 1e-9  # relative tolerance of the grid-doubling check
SKELETON_STEP = 0.12  # sweep skeleton spacing in omega, in units of max(b, nu)


class CoherentPotential(NamedTuple):
    """Solved coherent potential with its convergence metadata: complex fields
    for ``solve_p``'s point, 1-d arrays in grid order for a sweep.

    ``residual`` is the relative mismatch of the self-consistency equation
    (see the module docstring), at most NEWTON_TOL; ``branch_tag`` records
    how the branch was reached, one string for a whole sweep.
    ``g`` is the resolvent trace z*mean_k 1/D at (z, p) on the solve's grid,
    read off the converged Newton step's zone means.
    ``slope`` is the tangent dp/dz of the branch at (z, p), read off the
    same zone means; a sweep's next point starts from it.
    """

    p: complex
    z: complex
    residual: float
    iterations: int
    branch_tag: str
    g: complex
    slope: complex


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
    """Default spectral regularization: 1e-3 * nu on a lattice (nu > 0),
    whatever b, and 1e-3 * b in the flat-band limit (nu = 0)."""
    scale = params.b if params.nu == 0 else params.nu
    return 1e-3 * scale


def _G_terms(p: complex, z: complex, params: ModelParams, n: int):
    """Cleared residual G = p - a*b + b*p*I, its p-derivative, its scale, g
    and the tangent dp/dz = -(dG/dz)/(dG/dp) = -b*p*(dI/dz)/(dG/dp) at
    (z, p), all from one pair of zone means on the n^d grid; on 1-d arrays
    of p and z for lanes."""
    a, b = params.a, params.b
    # looked up on the module at each call, where a tracer can wrap it
    I, dI, g, dIz = bzquad.I_cpa_and_derivative(z, p, params.nu, params.d, n)
    bp = b * p
    G = p - a * b + bp * I
    dG = 1.0 + b * I + bp * dI
    # floored so that |G|/scale is defined at p = b = 0, where G = 0
    scale = a * b + abs(p) * (1.0 + b * abs(I)) + sys.float_info.min
    return G, dG, scale, g, -bp * dIz / dG


def _newton_terms(p: complex, z: complex, params: ModelParams, n: int):
    """``_G_terms`` at one Newton iterate, a SolverError where the zone means,
    G or g are not finite (z^2 overflows past |z| ~ 1e154) or dG/dp
    vanishes."""
    try:
        G, dG, scale, g, slope = _G_terms(p, z, params, n)
    except ValueError as exc:
        raise SolverError(f"at z={z}, p={p}: {exc}") from exc
    except ZeroDivisionError:
        raise SolverError(f"vanishing derivative at p={p}, z={z}") from None
    if not (cmath.isfinite(G) and cmath.isfinite(g)):
        raise SolverError(f"non-finite mismatch G={G} or g={g} at p={p}, z={z}")
    return G, dG, scale, g, slope


def _on_branch(p, g, ref, nu):
    """The one test of a converged root (p, g), on complex values or lane
    arrays: Re(p + nu) > 0, off the kernels' pole q = p + nu = 0;
    Re g >= -1e-9*|g|, as g is the resolvent of a spectral measure on the
    imaginary axis (Re g > 0 for Re z > 0); and |p - ref| within
    JUMP_TOL * |ref| of the reference p.  The bound has no absolute floor:
    p is a frequency, so the test is the same in any unit.  No zone mean is
    taken."""
    return ((p.real + nu > 0) & (g.real >= -1e-9 * abs(g))
            & (abs(p - ref) <= JUMP_TOL * abs(ref)))


def _newton(z, p0, params, n):
    """Damped Newton on the cleared residual, in the half-plane
    Re(p + nu) > 0, off the kernels' pole at q = p + nu = 0: a step's factor
    is halved until the trial p has Re(p + nu) > 0, which is tested before
    its zone means are taken, and lowers |G|; a non-finite iterate is a
    SolverError.  Returns (p, g, residual, iterations, slope)."""
    p = complex(p0)
    nu = params.nu
    if not p.real + nu > 0:
        raise ValueError(f"seed p must have Re(p + nu) > 0, got p={p}, nu={nu}")
    G, dG, scale, g, slope = _newton_terms(p, z, params, n)
    it = 0
    while abs(G) > NEWTON_TOL * scale:
        if it == MAX_ITER:
            raise SolverError(
                f"no convergence after {MAX_ITER} iterations at z={z}: "
                f"relative residual {abs(G) / scale:.3e}"
            )
        it += 1
        step = -G / dG
        lam = 1.0
        while lam >= 1e-12:
            pn = p + lam * step
            if pn.real + nu > 0:
                terms = _newton_terms(pn, z, params, n)
                if abs(terms[0]) < abs(G):
                    break
            lam *= DAMPING
        else:
            raise SolverError(
                f"damped Newton stalled in Re(p + nu) > 0 at z={z}: |G|={abs(G):.3e} "
                f"(relative {abs(G) / scale:.3e})"
            )
        p = pn
        G, dG, scale, g, slope = terms
    return p, g, abs(G) / scale, it, slope


def _march(z_from, p_from, slope, z_to, params, n):
    """Continue the branch along the straight segment z_from -> z_to, from
    the root p_from at z_from with tangent dp/dz = ``slope``.

    Each step's Newton run starts from the tangent predictor p + slope*dz of
    the last solved point, or from its p where that is not finite, has
    Re(p + nu) <= 0 or lies beyond JUMP_TOL of p, where the jump test would
    reject a root near it (as on a long first step out of the asymptote).
    A step is solved when Newton converges to a root that passes
    ``_on_branch`` against p.  Adaptive stepping: one step over the whole
    segment, halved on a failed step down to 0.5**MAX_PATH_REFINE of it,
    where the failure is raised (a BranchError for a root off the branch),
    and grown 1.5x after each solved step.  Returns (p, g, residual,
    iterations, slope) at z_to; the last step lands on z_to exactly, so g
    and the slope are read off the zone means there.
    """
    z0, z1 = complex(z_from), complex(z_to)
    z, p, g, resid, its, slope = z0, complex(p_from), None, 0.0, 0, complex(slope)
    dt_min = 0.5**MAX_PATH_REFINE
    t, dt = 0.0, 1.0
    while t < 1.0:
        tn = min(1.0, t + dt)
        zt = (1.0 - tn) * z0 + tn * z1
        start = p + slope * (zt - z)
        if not (cmath.isfinite(start) and start.real + params.nu > 0
                and abs(start - p) <= JUMP_TOL * max(1.0, abs(p))):
            start = p
        try:
            pn, gn, resid_n, its_n, slope_n = _newton(zt, start, params, n)
            if not _on_branch(pn, gn, p, params.nu):
                raise BranchError(f"root p={pn:.6g}, g={gn:.6g} at z={zt:.6g} is off the "
                                  f"branch from p={p:.6g} at the smallest path step")
        except SolverError:
            if dt * 0.5 < dt_min:
                raise
            dt *= 0.5
            continue
        z, p, g, resid, its, slope = zt, pn, gn, resid_n, its_n, slope_n
        t = tn
        dt = min(dt * 1.5, 1.0)
    return p, g, resid, its, slope


def solve_p(z: complex, params: ModelParams) -> CoherentPotential:
    """Solve the self-consistency equation for p(z) on the physical branch.

    The branch is pinned by continuation from the large-z asymptote p = a*b
    at z_start = Z_START_SCALE * max(b, nu), where the root must pass
    ``_on_branch`` against a*b (BranchError), then one ``_march`` to z,
    which like every sweep step starts with a single step and halves it
    down to 2^-23 of the segment.  The zone grid is
    ``bzquad.points_per_dim``'s, which a lattice above d = 3 without extents
    lacks (ValueError).  z must be finite with Re z > 0 (ValueError).  b = 0 is
    no special case: there the seed p = 0 solves the equation, and every
    Newton run ends where it starts.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"solve_p requires a finite z, got {z}")
    if not z.real > 0:
        raise ValueError(f"solve_p requires Re z > 0, got {z}")
    n = bzquad.points_per_dim(params)
    z_start = complex(Z_START_SCALE * max(params.b, params.nu))
    ab = params.a * params.b
    p, g, resid, its, slope = _newton(z_start, ab, params, n)
    if not _on_branch(p, g, ab, params.nu):
        raise BranchError(f"root p={p:.6g}, g={g:.6g} at z_start={z_start:.6g} is "
                          f"off the branch from the asymptote p=a*b={ab:.6g}")
    if z != z_start:
        p, g, resid, its, slope = _march(z_start, p, slope, z, params, n)
    return CoherentPotential(
        p=p, z=z, residual=resid, iterations=its,
        branch_tag=f"continuation from z_start={z_start.real:.6g} (seed p=a*b)",
        g=g, slope=slope,
    )


def _sweep_step(z_from, p_from, slope, z_next, params: ModelParams, n: int):
    """A sequential sweep step: ``_march`` from the solved point (z_from, p_from)
    with tangent ``slope`` to z_next, whose failure names z_next's omega."""
    try:
        return _march(z_from, p_from, slope, z_next, params, n)
    except SolverError as exc:
        raise type(exc)(f"omega={z_next.imag:g}: {exc}") from exc


def _put(sweep: CoherentPotential, at, solved) -> None:
    """Write (p, g, residual, iterations, slope) into the sweep's arrays at ``at``."""
    (sweep.p[at], sweep.g[at], sweep.residual[at], sweep.iterations[at],
     sweep.slope[at]) = solved


def continuation_sweep(
    omega_grid: Sequence[float], eps: float, params: ModelParams
) -> CoherentPotential:
    """Solve p along z = eps + i*omega for every omega: a sequential sweep on
    a coarse skeleton of the grid, then every other point as one lane of a
    vectorized Newton run.  Every omega and eps must be finite, and eps
    positive (ValueError).  Returns one CoherentPotential of 1-d arrays in
    grid order, z = complex(eps, omega) exactly, whose ``branch_tag`` adds the
    counts of skeleton points, lanes and lane fallbacks (among the lanes) to
    the first point's.  b = 0 is no special case.

    The skeleton is the first point, each point at least
    SKELETON_STEP * max(b, nu) in omega from the previous skeleton point, and
    the last point.  It is marched in the order given (so a reversed grid
    sweeps downward); its first point is reached by full continuation from
    the asymptotic regime.  Each later skeleton point is marched from the
    one before, every step starting from the tangent predictor p + slope*dz
    of the last solved point (see ``_march``).  Where a point's step fails,
    its SolverError (or BranchError) is raised, its message prefixed with
    "omega=<omega>: ", as is a failure of the first point.  So every
    returned point is converged.

    A point between two skeleton points is a lane: Newton starts from the
    cubic Hermite interpolant, in z, of p and slope at its two skeleton
    neighbours, and runs undamped on all lanes together; a lane's slope is
    read off its converged step.  A lane falls back to the sequential step
    from its left skeleton neighbour, and that step's error, where its omega
    is not strictly between its skeleton neighbours', it has not converged
    after five steps, its zone means are not finite, or its root fails
    ``_on_branch`` against its seed.
    """
    omegas = np.asarray(omega_grid, dtype=float)
    if omegas.ndim != 1 or omegas.size == 0:
        raise ValueError("omega_grid must be a nonempty 1-d sequence")
    if not np.isfinite(omegas).all():
        raise ValueError("omega_grid must be finite")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    n = bzquad.points_per_dim(params)
    w = omegas.tolist()
    spacing = SKELETON_STEP * max(params.b, params.nu)
    skeleton = [0]
    for i in range(1, len(w) - 1):
        if abs(w[i] - w[skeleton[-1]]) >= spacing:
            skeleton.append(i)
    if len(w) > 1:
        skeleton.append(len(w) - 1)
    z = eps + 1j * omegas  # complex(eps, w), exactly
    sweep = CoherentPotential(p=np.empty_like(z), z=z, residual=np.empty(z.size),
                              iterations=np.empty(z.size, dtype=int), branch_tag="",
                              g=np.empty_like(z), slope=np.empty_like(z))
    try:
        first = solve_p(z[0], params)
    except SolverError as exc:
        raise type(exc)(f"omega={w[0]:g}: {exc}") from exc
    _put(sweep, 0, (first.p, first.g, first.residual, first.iterations, first.slope))
    for s, i in zip(skeleton, skeleton[1:]):
        _put(sweep, i, _sweep_step(z[s], sweep.p[s], sweep.slope[s], z[i], params, n))
    lanes = z.size - len(skeleton)
    fallbacks = _solve_lanes(sweep, np.array(skeleton), params, n) if lanes else 0
    counts = f"{len(skeleton)} skeleton points, {lanes} lanes, {fallbacks} lane fallbacks"
    return sweep._replace(branch_tag=f"{first.branch_tag}; swept: {counts}")


def _solve_lanes(sweep, skeleton: np.ndarray, params: ModelParams, n: int) -> int:
    """Solve the lanes of ``sweep`` in place, as ``continuation_sweep``
    describes, the converged ones by mask; returns the number of fallbacks."""
    z = sweep.z
    off = np.ones(z.size, dtype=bool)
    off[skeleton] = False
    lanes = np.flatnonzero(off)
    left = np.searchsorted(skeleton, lanes) - 1  # skeleton position of the left neighbour
    w, w_skel = z.imag[lanes], z.imag[skeleton]
    ok = (w - w_skel[left]) * (w_skel[left + 1] - w) > 0
    lo, w = left[ok], w[ok]
    p_skel = sweep.p[skeleton]
    # cubic Hermite interpolant in omega, which is z up to the constant eps
    # and a factor i: dp/domega = i*dp/dz
    h = w_skel[lo + 1] - w_skel[lo]
    dp_skel = 1j * sweep.slope[skeleton]
    x = (w - w_skel[lo]) / h
    seed = ((1 - x) ** 2 * ((1 + 2 * x) * p_skel[lo] + x * h * dp_skel[lo])
            + x * x * ((3 - 2 * x) * p_skel[lo + 1] - (1 - x) * h * dp_skel[lo + 1]))
    p, g, resid, _, _ = solved = _lane_newton(z[lanes[ok]], seed, params, n)
    good = np.isfinite(resid) & _on_branch(p, g, seed, params.nu)
    done = lanes[ok][good]
    _put(sweep, done, tuple(col[good] for col in solved))
    off[done] = False
    for i, s in zip(np.flatnonzero(off).tolist(), skeleton[left[off[lanes]]].tolist()):
        _put(sweep, i, _sweep_step(z[s], sweep.p[s], sweep.slope[s], z[i], params, n))
    return int(off.sum())


def _lane_newton(z: np.ndarray, p: np.ndarray, params: ModelParams, n: int):
    """Undamped Newton on the cleared residual, every lane at once: one array
    zone-mean call per step, lanes dropping out as they converge.  Returns
    (p, g, residual, iterations, slope); a lane that fails (not converged
    after five steps, or means not finite) has residual inf."""
    p = p.copy()
    g = np.full(p.size, np.nan, dtype=complex)
    slope = g.copy()
    resid = np.full(p.size, math.inf)
    its = np.zeros(p.size, dtype=int)
    live = np.arange(p.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(6):
            if not live.size:
                break
            pl = p[live]
            G, dG, scale, gl, sl = _G_terms(pl, z[live], params, n)
            done = (abs(G) <= NEWTON_TOL * scale) & np.isfinite(gl)
            fin = live[done]
            resid[fin], g[fin], its[fin] = abs(G[done]) / scale[done], gl[done], it
            slope[fin] = sl[done]
            go = ~done & np.isfinite(G)
            p[live[go]] = pl[go] - G[go] / dG[go]
            live = live[go]
    return p, g, resid, its, slope


def dos_curve(
    omega_grid: Sequence[float], eps: float, params: ModelParams, *, check: bool = False
) -> DosCurve:
    """Frequency density rho(omega) = Re g(eps + i*omega) / pi on the grid,
    from one continuation sweep.

    The broadening error is O(eps): a smaller eps, down to about
    1e-9 * max(b, nu), brings rho closer to the eps -> 0+ limit.  Omega and
    eps must be finite and positive (ValueError).  ``check=True`` takes g at
    every solved point on the doubled grid, (2L)^d, instead, and notes each
    point where it differs from the carried g by more than DOUBLING_TOL
    relative.
    The zero-frequency point mass max(0, 1 - a) is reported separately, and
    only in the random-matrix limit (nu = 0, a < 1) where the rank
    deficiency of the couplings enforces it; its pole (1 - a)/z is
    subtracted from g, so rho does not carry it.  A density below -1e-6 / max(b, nu), in
    the unit rho scales with, is a BranchError.
    """
    omegas = np.asarray(omega_grid, dtype=float)
    if omegas.size and omegas.min() <= 0:
        raise ValueError("omega_grid must be strictly positive")
    dirac = max(0.0, 1.0 - params.a) if params.nu == 0 else 0.0
    sweep = continuation_sweep(omegas, eps, params)
    g = sweep.g  # the sweep's own array: rewritten in place below
    notes = []
    if check:
        n = bzquad.points_per_dim(params)
        for i, (z, p, g1) in enumerate(zip(sweep.z.tolist(), sweep.p.tolist(), g.tolist())):
            g[i] = g2 = bzquad.I_g(z, p, params.nu, params.d, 2 * n)
            if abs(g1 - g2) > DOUBLING_TOL * max(abs(g2), np.finfo(float).tiny):
                notes.append(
                    f"grid-doubling check failed: |I_n - I_2n| = {abs(g1 - g2):.3e} "
                    f"exceeds rel_tol={DOUBLING_TOL:g} * |I_2n| at n={n}, d={params.d}")
    if dirac:
        # the point mass is the pole dirac/z of g; keep its broadened
        # Lorentzian out of rho so the mass is booked once
        g -= dirac / sweep.z
    rho = g.real / np.pi
    # rho scales as 1/max(b, nu), and so does the tolerance
    if rho.size and rho.min() < -1e-6 / max(params.b, params.nu):
        raise BranchError(
            f"negative density {rho.min():.3e} beyond tolerance: "
            "the solved branch is not the physical one"
        )
    return DosCurve(
        omegas=omegas,
        rho=rho,
        p=sweep.p,
        residuals=sweep.residual,
        dirac_mass_at_zero=dirac,
        eps=eps,
        notes=tuple(notes),
    )


def rmt_scaled_a1(x_grid: Sequence[float]) -> np.ndarray:
    """Scaled density of the critical-ratio (a = 1) random-matrix limit.

    In units where the disorder strength is scaled out, the density at
    scaled frequency x > 0 is Im(gt(x)) / pi with gt the physical root of
    gt^3 - gt + 1/x = 0; it diverges like x**(-1/3) at small x and vanishes
    beyond the edge x = 3*sqrt(3)/2.

    By Cardano, with q = 1/(2x) and c = 1/sqrt(27): inside the support,
    q > c, Im gt = (sqrt(3)/2) * (u - 1/(3u)), u = cbrt(q + sqrt(q^2 - c^2)).
    The second Cardano term is -1/(3u) by the product of the two, which does
    not cancel as x -> 0; sqrt(q - c)*sqrt(q + c) keeps q^2 from overflowing.
    """
    x = np.asarray(x_grid, dtype=float)
    if np.any(~np.isfinite(x)) or np.any(x <= 0):
        raise ValueError("x_grid must contain finite positive values")
    q, c = 0.5 / x, 1.0 / math.sqrt(27.0)
    u = np.cbrt(q + np.sqrt(np.maximum(q - c, 0.0)) * np.sqrt(q + c))
    return np.where(q > c, math.sqrt(3.0) / (2.0 * math.pi) * (u - 1.0 / (3.0 * u)), 0.0)


def find_gap_edge(params: ModelParams) -> float:
    """Low-frequency spectral-gap edge of the flat band (nu = 0): 0.0 when
    a <= 1, else the square-root edge where the cubic's real roots turn
    into a complex pair (Velicky, Kirkpatrick & Ehrenreich, Phys. Rev. 175,
    747 (1968)).

    At z = i*omega the flat-band equation clears to the real cubic
    p^3 + b(1 - a)p^2 - omega^2 p + a*b*omega^2 = 0.  With B = 1 - a and
    w = (omega/b)^2 its discriminant vanishes where
    4w^2 + (B^2 - 18aB - 27a^2)w - 4aB^3 = 0, whose roots w+ > w- > 0 are
    the upper support edge and the gap edge.  That quadratic's discriminant
    is (8a + 1)^3, so w+ = (8a^2 + 20a - 1 + (8a + 1)^1.5) / 8, and w- is
    the product of the roots over w+, a(a - 1)^3 / w+, so nothing cancels
    as a -> 1+.  The edge b*sqrt(w-) scales with b exactly.  A lattice
    (nu > 0) has no closed form here: ValueError.
    """
    if params.nu > 0:
        raise ValueError(f"find_gap_edge needs the flat band (nu = 0), got nu={params.nu}")
    a = params.a
    if a <= 1:
        return 0.0
    w_upper = (8.0 * a * a + 20.0 * a - 1.0 + (8.0 * a + 1.0) ** 1.5) / 8.0
    return params.b * ((a - 1.0) * math.sqrt(a * (a - 1.0) / w_upper))
