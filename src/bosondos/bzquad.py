"""Normalized Brillouin-zone quadrature on periodic tensor-product grids.

All integrals are normalized by (2*pi)^d, i.e. they are means over
[0, 2*pi)^d.  Every propagator kernel depends on k only through the scaled
Laplacian symbol dlt_k = mean_i cos k_i, so the one primitive ``_zone_mean``
takes a kernel written as a function of dlt and averages it over the uniform
n^d grid.  The integrands are smooth and periodic as long as Re z > 0 keeps
the propagator denominator away from zero, so the uniform (trapezoidal ==
rectangle) rule converges spectrally.  The grid is folded onto its orbits
under k_i -> -k_i and axis permutations, which leave dlt unchanged (the
irreducible-wedge reduction of special-point zone sampling): the kernel is
evaluated once per distinct node and the mean is the orbit-weighted sum,
taken by numpy pairwise summation so it does not depend on the BLAS thread
count.  That is 2049 / 8385 / 6545 nodes instead of 4096 / 65536 / 262144
points on the default d = 1 / 2 / 3 grids.  In the random-matrix limit
nu = 0 the kernels do not depend on k and the primitive evaluates them once
at dlt = 0, without a grid.

With ``QuadratureSpec.convergence_check`` the mean is recomputed on the
doubled grid; a relative disagreement beyond ``REL_TOL`` issues an
AccuracyWarning and the doubled-grid value is returned.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List

import numpy as np

__all__ = [
    "QuadratureSpec",
    "KernelParams",
    "AccuracyWarning",
    "default_points_per_dim",
    "I_g",
    "I_cpa",
    "dI_cpa_dp",
]

_DEFAULT_POINTS = {1: 4096, 2: 256, 3: 64}

REL_TOL = 1e-9  # relative tolerance of the grid-doubling check


class AccuracyWarning(UserWarning):
    """Raised (as a warning) when the grid-doubling check does not converge."""


def default_points_per_dim(d: int) -> int:
    """Per-dimension grid size balancing cost against broadening-limited accuracy."""
    return _DEFAULT_POINTS.get(d, 16)


@dataclass(frozen=True)
class QuadratureSpec:
    """Uniform-grid quadrature configuration.

    ``convergence_check`` compares the result against a doubled grid and
    attaches an AccuracyWarning on disagreement beyond ``REL_TOL``; the
    doubled-grid value is the one returned in that mode.
    """

    points_per_dim: int = 4096
    convergence_check: bool = False

    def __post_init__(self):
        if self.points_per_dim < 4:
            raise ValueError("points_per_dim must be at least 4")


@dataclass(frozen=True)
class KernelParams:
    """Arguments of the propagator kernels: frequency z, coherent potential p,
    and the clean scale nu.  The physical frequency domain is Re z > 0."""

    z: complex
    p: complex
    nu: float


def _D_of_delta(dlt, kp: KernelParams):
    """Propagator denominator z^2 + p^2 + p*nu*(2 - dlt) + nu^2*(1 - dlt)."""
    return (
        kp.z * kp.z
        + kp.p * kp.p
        + kp.p * kp.nu * (2.0 - dlt)
        + kp.nu * kp.nu * (1.0 - dlt)
    )


@lru_cache(maxsize=8)
def _zone_nodes(d: int, n: int):
    """Distinct Laplacian-symbol nodes of the uniform n^d grid, cached.

    Axis indices j and n - j give the same cosine, and dlt does not change
    when the axes are permuted, so every grid point folds onto the sorted
    tuple of its axis classes c = min(j, n - j).  A class stands for one
    index at c = 0 and at c = n/2 (even n), for two otherwise.  Returns
    ``(dlt, weight, rep)``: the symbol at each node, the node's orbit size
    over n^d (the weights sum to 1), and the node's class tuple, which is
    itself a grid index and names the node in error messages.
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
    for a in (dlt, weight, rep):
        a.setflags(write=False)
    return dlt, weight, rep


def _zone_mean(
    build: Callable, kp: KernelParams, d: int, spec: QuadratureSpec
) -> List[complex]:
    """Zone means of the arrays ``build(dlt)`` returns, one per entry.

    The first entry must be a nonzero factor times 1/D, so it is finite
    exactly where every entry is.  Only its mean is checked: one non-finite
    sample makes the mean non-finite, and then the first such node is
    reported by a grid point of its orbit.  At nu = 0 nothing depends on k
    and ``build`` runs once on the scalar dlt = 0.
    """
    if kp.nu == 0.0:
        return [complex(v) for v in build(0.0)]
    n = spec.points_per_dim
    means = None
    for m in (n, 2 * n) if spec.convergence_check else (n,):
        dlt, weight, rep = _zone_nodes(d, m)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = build(dlt)
            coarse, means = means, [complex((v * weight).sum()) for v in values]
        if not cmath.isfinite(means[0]):
            bad = np.flatnonzero(~np.isfinite(values[0]))
            if not bad.size:
                raise ValueError(f"zone mean overflows at {m} points per dimension")
            idx = rep[bad[0]]
            point = tuple(float(2.0 * np.pi * i / m) for i in idx)
            raise ValueError(
                f"non-finite integrand sample at grid point k={point} "
                f"(index {tuple(int(i) for i in idx)}, {m} points per dimension)"
            )
    if spec.convergence_check:
        for i_n, i_2n in zip(coarse, means):
            scale = max(abs(i_2n), np.finfo(float).tiny)
            if abs(i_n - i_2n) > REL_TOL * scale:
                warnings.warn(
                    AccuracyWarning(
                        f"grid-doubling check failed: |I_n - I_2n| = "
                        f"{abs(i_n - i_2n):.3e} exceeds rel_tol={REL_TOL:g} "
                        f"* |I_2n| at n={n}, d={d}"
                    ),
                    stacklevel=3,
                )
    return means


def I_g(kp: KernelParams, d: int, spec: QuadratureSpec) -> complex:
    """Resolvent integral: mean of z / D over the zone."""
    return _zone_mean(lambda dlt: (kp.z / _D_of_delta(dlt, kp),), kp, d, spec)[0]


def I_cpa_and_derivative(kp: KernelParams, d: int, spec: QuadratureSpec):
    """(I_cpa, dI_cpa/dp) from one shared evaluation of the denominator.

    I_cpa is the self-consistency integral, the mean of
    (p + nu*(1 - dlt/2)) / D; its p-derivative is taken under the integral.
    Newton iterations call this on every step; fusing the two integrals
    halves the dominant cost.
    """

    def build(dlt):
        inv_D = 1.0 / _D_of_delta(dlt, kp)
        t = (kp.p + kp.nu * (1.0 - 0.5 * dlt)) * inv_D
        return t, inv_D * (1.0 - t * (2.0 * kp.p + kp.nu * (2.0 - dlt)))

    return _zone_mean(build, kp, d, spec)


def I_cpa(kp: KernelParams, d: int, spec: QuadratureSpec) -> complex:
    """Self-consistency integral: mean of (p + nu*(1 - dlt/2)) / D."""
    return I_cpa_and_derivative(kp, d, spec)[0]


def dI_cpa_dp(kp: KernelParams, d: int, spec: QuadratureSpec) -> complex:
    """Analytic p-derivative of ``I_cpa`` (differentiation under the integral)."""
    return I_cpa_and_derivative(kp, d, spec)[1]
