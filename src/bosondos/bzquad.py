"""Normalized Brillouin-zone means on periodic tensor-product grids.

All integrals are means over the uniform n^d grid on [0, 2*pi)^d: the
momenta 2*pi*j/n of the periodic lattice with n sites per dimension.  Every
propagator kernel depends on k only through the Laplacian symbol
dlt_k = mean_i cos k_i, and its denominator is linear in it, D = alpha -
beta*dlt, so every kernel is scalar algebra on two grid means, m1 = mean 1/D
and m2 = mean 1/D^2, and both are exact sums over the grid.  With
t = beta/alpha, a node of the first d - 1 axes with cosine sum c has
1 - t*dlt = a*(1 - tau*cos k_d), a = 1 - t*c/d and tau = t/(d*a), and the sum
over the last axis is the discrete Poisson kernel

    M1(tau) = mean_j 1/(1 - tau*cos(2*pi*j/n)) = (1 + P)/((1 - P)*r),
    M2(tau) = M1 + tau*dM1/dtau = (M1 + 2*n*P/(1 - P)^2)/r^2,

with r = sqrt((1 - tau)*(1 + tau)) on the principal root, rho = tau/(1 + r)
and P = rho^n.  The d - 1 axes are folded onto their orbits under
k_i -> -k_i and axis permutations (``_zone_nodes``) and summed with orbit
weights by numpy pairwise summation, independent of the BLAS thread count:
1 / 129 / 561 evaluations per mean on the default d = 1 / 2 / 3 grids.  The
means are carried as their excess over the flat-band values 1/alpha and
1/alpha^2 (``_excess``), which vanishes at nu = 0 (t = 0): there the node
table is still built (at d >= 2) and summed, to exact zeros, on any grid.
The closed form is not finite where tau = +-1 or P = 1 at a node (D vanishes
there, or it reads 0/0 at tau = -1 of an odd grid): a complex call raises
ValueError there, and a lane comes back nan or inf.

Every kernel takes (z, p, nu, d, n), with the grid size n a plain int, and
returns the mean on that grid alone; ``points_per_dim`` resolves it from a
model's lattice.  The grid-doubling check is ``cpa.dos_curve``'s.
"""

from __future__ import annotations

import cmath
import itertools
import math
from functools import lru_cache

import numpy as np

from .model import ModelParams

__all__ = ["points_per_dim", "I_g", "I_cpa", "dI_cpa_dp"]

_DEFAULT_POINTS = {1: 4096, 2: 256, 3: 64}


def points_per_dim(params: ModelParams) -> int:
    """The zone grid size per dimension: L for a lattice of extents
    (L, ..., L), whose momenta the mean runs over (unequal extents:
    ValueError), else the default that stands in for the infinite lattice,
    balancing cost against broadening-limited accuracy.

    A lattice (nu > 0) above d = 3 has no default, so its extents must be
    given (ValueError): 16 points per dimension put the d = 4 density about
    1% of its maximum off the 32-point one.  At nu = 0 the means are the
    flat-band values on any grid, and 16 points serve.
    """
    if params.extents is not None:
        if len(set(params.extents)) > 1:
            raise ValueError(f"the mean field needs equal extents, got {params.extents}")
        return params.extents[0]
    if params.d in _DEFAULT_POINTS:
        return _DEFAULT_POINTS[params.d]
    if params.nu > 0:
        raise ValueError(f"no default zone grid for a lattice at d = {params.d} > 3; give "
                         "its extents (--kgrid) explicitly")
    return 16


@lru_cache(maxsize=8)
def _zone_nodes(d: int, n: int):
    """Distinct Laplacian-symbol nodes of the uniform n^d grid, cached.

    Axis indices j and n - j give the same cosine, and dlt does not change
    when the axes are permuted, so every grid point folds onto the sorted
    tuple of its axis classes c = min(j, n - j).  A class stands for one
    index at c = 0 and at c = n/2 (even n), for two otherwise.  Returns
    ``(dlt, weight)``: the symbol at each node and the node's orbit size
    over n^d (the weights sum to 1).
    """
    c = np.arange(n // 2 + 1)
    mult = np.where((c == 0) | (2 * c == n), 1, 2)
    tuples = itertools.combinations_with_replacement(range(len(c)), d)
    rep = np.fromiter(itertools.chain.from_iterable(tuples), dtype=np.int64)
    rep = rep.reshape(-1, d)
    # orbit size: sign choices times distinct axis orderings d!/prod(r!) over
    # runs of r equal classes; each entry divides by its position in its run
    orbit = np.prod(mult[rep], axis=1) * math.factorial(d)
    for i in range(1, d):
        orbit //= np.sum(rep[:, : i + 1] == rep[:, i : i + 1], axis=1)
    weight = orbit / float(n) ** d
    dlt = np.cos(2.0 * np.pi * c / n)[rep].sum(axis=1) / d
    for a in (dlt, weight):
        a.setflags(write=False)
    return dlt, weight


def _power(x: np.ndarray, n: int, inplace: bool = False) -> np.ndarray:
    """x**n by binary exponentiation, n >= 1: numpy's complex ** takes an
    exp/log path for n >= 100 that costs over ten times as much.
    ``inplace`` squares x in place, and returns x itself where n is a power
    of two."""
    result = None
    while n > 1:
        if n & 1:
            result = x.copy() if result is None else result * x
        x = np.multiply(x, x, out=x if inplace else None)
        n >>= 1
    return x if result is None else result * x


def _axis_excess(tau, n: int, sqrt, power):
    """M1(tau) - 1 and M2(tau) - 1; ``sqrt`` and ``power`` act on cmath's
    scalars or on numpy arrays."""
    r = sqrt((1 - tau) * (1 + tau))
    rho = tau / (1 + r)
    P = power(rho, n)
    u = 1 / (1 - P)
    ir = 1 / r
    f1 = (tau * rho + 2 * P * u) * ir  # 1 - r = tau * rho
    return f1, (f1 + tau * tau + 2 * n * P * u * u) * (ir * ir)


def _node_excess(t, d: int, n: int):
    """``_excess`` at d >= 2 as numpy values: the last axis in closed
    form at each node of the first d - 1, summed with orbit weights along the
    last array axis, so a column of t sums each lane as a scalar t would.

    ``_axis_excess``'s algebra, in place on seven arrays of lanes x nodes
    (eight where n is not a power of two).  Its constants are complex, which
    numpy applies to a complex array faster than Python ints.  The arrays
    have at least three elements: numpy rounds an in-place product of
    one-element arrays differently, so the d = 1 lanes stay out of place."""
    dlt, weight = _zone_nodes(d - 1, n)
    one, two = 1 + 0j, 2 + 0j
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b = dlt * (t * (d - 1))  # t*c
        ia = np.subtract(complex(d), b)  # d*a, exact where t*c is
        tau = t / ia
        np.divide(complex(d), ia, out=ia)  # 1/a
        b *= complex(1 / d)  # 1 - a
        r = np.subtract(one, tau)
        x = np.add(one, tau)
        r *= x
        np.sqrt(r, out=r)
        np.add(one, r, out=x)
        np.divide(tau, x, out=x)  # rho
        f1 = tau * x  # 1 - r
        P = _power(x, n, inplace=True)
        u = np.subtract(one, P)
        np.divide(two, u, out=u)  # 2/(1 - P)
        P *= u
        f1 += P
        np.divide(one, r, out=r)  # 1/r
        f1 *= r  # M1 - 1
        P *= u
        P *= complex(n / 2)  # 2*n*P/(1 - P)^2
        f2 = tau
        f2 *= tau
        f2 += f1
        f2 += P
        r *= r
        f2 *= r  # M2 - 1
        f1 += b
        np.subtract(two, b, out=u)
        u *= b  # 1 - a^2
        f2 += u
        f2 *= ia
        ia *= weight
        f1 *= ia
        f2 *= ia
        return f1.sum(axis=-1), f2.sum(axis=-1)


def _excess(t, d: int, n: int):
    """The one zone mean: E1 = mean 1/(1 - t*dlt) - 1 and E2 = mean
    1/(1 - t*dlt)^2 - 1 over the n^d grid, so D = alpha*(1 - t*dlt) has
    m1 = (1 + E1)/alpha and m2 = (1 + E2)/alpha^2.  ``t`` is complex
    (ValueError where the means are not finite) or a 1-d array of lanes
    (nan or inf there)."""
    if not isinstance(t, np.ndarray):
        try:
            e1, e2 = (_axis_excess(t, n, cmath.sqrt, pow) if d == 1
                      else map(complex, _node_excess(t, d, n)))
        except (ZeroDivisionError, OverflowError):
            e1 = e2 = cmath.nan
        if not (cmath.isfinite(e1) and cmath.isfinite(e2)):
            raise ValueError(f"the zone means are not finite at t = beta/alpha = {t} "
                             f"(d = {d}, {n} points per dimension)")
        return e1, e2
    if d == 1:
        return _axis_excess(t, n, np.sqrt, _power)
    # blocks of about 4096 lanes x nodes (64 KB per complex array) stay in
    # cache: on a 2-core Xeon with 2 MB of L2 per core, a 600-point d = 3 curve
    # took 8-18% / 10-19% / 37% longer in blocks of 2048 / 8192 / 16384 (best
    # CPU time of 25 in each of two runs)
    e1, e2 = np.empty_like(t), np.empty_like(t)
    step = max(1, 4096 // len(_zone_nodes(d - 1, n)[0]))
    for s in range(0, t.size, step):
        e1[s : s + step], e2[s : s + step] = _node_excess(t[s : s + step, None], d, n)
    return e1, e2


def I_cpa_and_derivative(z, p, nu: float, d: int, n: int):
    """(I_cpa, dI_cpa/dp, I_g, dI_cpa/dz) at frequency z (physical for
    Re z > 0), coherent potential p and clean scale nu, from one pair of zone
    means on the n^d grid, for each Newton step.

    With q = p + nu, D = z^2 + p^2 + p*nu*(2 - dlt) + nu^2*(1 - dlt) =
    alpha - beta*dlt, alpha = q^2 + z^2 and beta = nu*q.  I_cpa is the mean
    of (p + nu*(1 - dlt/2)) / D, differentiated under the integral.  Its
    numerator is A + D/(2q), A = q - alpha/(2q), and dD/dp = 2A + D/q, so
    I_cpa = 1/(2q) + A*m1 and dI_cpa/dp = m1 - 2A^2*m2 - 2A*m1/q - 1/(2q^2).
    On the excess means the flat-band terms cancel exactly:
    I_cpa = (q + A*E1)/alpha and
    dI_cpa/dp = E1*z^2/(q^2*alpha) - 2(A/alpha)*((q + A*E2)/alpha).  With
    dD/dz = 2z and dA/dz = -z/q, dI_cpa/dz = -2z*(A*m2 + m1/(2q)), which on
    the excess means is -(z/alpha)*(2q*(1 + E2)/alpha + (E1 - E2)/q).  Both
    derivatives are written in these scaled forms, finite wherever z^2 is
    (alpha^2 overflows past |z| ~ 1e77).  I_g = z*m1 and dI_cpa/dz come
    from the same means, so the solver reads g and the tangent dp/dz off its
    converged step instead of taking another zone mean.

    z and p are complex, or 1-d arrays of equal length, one lane each, whose
    zone means are taken together.  A complex call raises ValueError at
    p = -nu or alpha = 0, where there is no closed form, and where the zone
    means are not finite; a lane there comes back nan or inf.
    """
    if isinstance(z, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _kernels(z, p + nu, nu, d, n)
    try:
        return _kernels(z, complex(p + nu), nu, d, n)
    except ZeroDivisionError:
        raise ValueError(f"the kernels have no closed form at z={z}, p={p}: p = -nu "
                         "or alpha = (p + nu)^2 + z^2 = 0") from None


def _kernels(z, q, nu: float, d: int, n: int):
    """The algebra of ``I_cpa_and_derivative`` at q = p + nu."""
    zz, qq = z * z, q * q
    alpha = qq + zz
    e1, e2 = _excess(nu * q / alpha, d, n)
    A = (qq - zz) / (2 * q)
    return (
        (q + A * e1) / alpha,
        e1 * zz / (qq * alpha) - 2 * (A / alpha) * ((q + A * e2) / alpha),
        z * (1 + e1) / alpha,
        -(z / alpha) * (2 * q * (1 + e2) / alpha + (e1 - e2) / q),
    )


def I_g(z, p, nu: float, d: int, n: int) -> complex:
    """Resolvent integral: mean of z / D over the n^d grid, z * m1."""
    return I_cpa_and_derivative(z, p, nu, d, n)[2]


def I_cpa(z, p, nu: float, d: int, n: int) -> complex:
    """Self-consistency integral: mean of (p + nu*(1 - dlt/2)) / D."""
    return I_cpa_and_derivative(z, p, nu, d, n)[0]


def dI_cpa_dp(z, p, nu: float, d: int, n: int) -> complex:
    """Analytic p-derivative of ``I_cpa`` (differentiation under the integral)."""
    return I_cpa_and_derivative(z, p, nu, d, n)[1]
