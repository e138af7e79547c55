import cmath
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bosondos import ModelParams, dos_curve
from bosondos.bzquad import (
    I_cpa,
    I_g,
    I_cpa_and_derivative,
    _excess,
    _zone_nodes,
    dI_cpa_dp,
    points_per_dim,
)
from clean_model import delta_k

SMALL = 64


def default_points(d, nu=1.0):
    """The default grid per dimension of a model without extents."""
    return points_per_dim(ModelParams(d=d, a=1.0, b=1.0, nu=nu))


def grid_mean(f, d, n):
    """Orbit-weighted mean of a function of the Laplacian symbol dlt over
    the folded nodes of the n^d grid."""
    dlt, weight = _zone_nodes(d, n)
    return (f(dlt) * weight).sum()


def full_symbol(d, n):
    """The symbol at every point of the unfolded n^d grid."""
    axes = np.meshgrid(*(2 * np.pi * np.arange(n) / n,) * d, indexing="ij")
    return sum(np.cos(k) for k in axes) / d


def D_of(z, p, nu, k):
    """D in the form the kernels use: alpha - beta*dlt with q = p + nu,
    alpha = q^2 + z^2 and beta = nu*q."""
    q = p + nu
    return q * q + z * z - nu * q * delta_k(k)


def test_normalization_constant_integrand():
    for d in (1, 2):
        assert grid_mean(np.ones_like, d, 64) == pytest.approx(1.0, abs=1e-15)


def test_cosine_mean_vanishes():
    for d in (1, 2):
        assert abs(grid_mean(lambda dlt: dlt, d, 64)) < 1e-15


@pytest.mark.parametrize("d,expected", [(1, 0.5), (2, 0.25)])
def test_delta_squared_mean(d, expected):
    # analytic: cross terms vanish and each cos^2 averages to 1/2,
    # so mean of delta^2 is 1/(2d)
    val = grid_mean(lambda dlt: dlt**2, d, 64)
    assert val == pytest.approx(expected, abs=1e-14)


@given(
    st.integers(min_value=-6, max_value=6),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=40)
def test_trig_exactness_and_linearity(m, c1, c2):
    # at d = 1, cos(m k) is the Chebyshev polynomial T_|m| of dlt = cos k;
    # n = 8 points integrate it exactly for |m| < 7
    f1 = np.polynomial.chebyshev.Chebyshev.basis(abs(m))
    f2 = lambda dlt: dlt**2
    want = (1.0 if m == 0 else 0.0) * c1 + 0.5 * c2
    got = grid_mean(lambda dlt: c1 * f1(dlt) + c2 * f2(dlt), 1, 8)
    assert got == pytest.approx(want, abs=1e-13 * (1 + abs(c1) + abs(c2)))


def test_kernel_D_reduces_without_potential():
    z, nu = 0.3 + 0.7j, 1.2
    dlt = np.cos(1.1)
    got = D_of(z, 0.0, nu, [1.1])
    assert got == pytest.approx(z**2 + nu**2 * (1 - dlt), abs=1e-15)


def test_kernel_D_reduces_without_lattice():
    z, p = 0.3 + 0.7j, 0.4 - 0.1j
    got = D_of(z, p, 0.0, [2.0])
    assert got == pytest.approx(z**2 + p**2, abs=1e-15)


def test_kernel_D_zone_center():
    z, p, nu = 1.0 + 1.0j, 0.5j, 0.8
    want = z**2 + p**2 + p * nu
    assert D_of(z, p, nu, [0.0]) == pytest.approx(want, abs=1e-15)


def test_I_g_flat_band_limit_grid_independent():
    z, p = 0.2 + 0.9j, 0.3 + 0.2j
    want = z / (z**2 + p**2)
    for n in (8, 64, 256):
        got = I_g(z, p, 0.0, 1, n)
        assert got == pytest.approx(want, rel=1e-14)


def test_I_g_pure_chain_density():
    # Re I_g / pi approaches the clean chain density for small Re z
    eps, omega = 1e-3, 1.0
    got = I_g(eps + 1j * omega, 0.0, 1.0, 1, 65536).real / np.pi
    want = 1.0 / (np.pi * np.sqrt(2.0 - omega**2))
    # leading deviation is the O(eps) Lorentzian broadening
    assert got == pytest.approx(want, abs=5e-3)


def test_I_g_odd_in_z_at_fixed_p():
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = complex(rng.uniform(0.1, 2), rng.uniform(-2, 2))
        p = complex(rng.uniform(0.05, 1), rng.uniform(-1, 1))
        a = I_g(z, p, 1.0, 1, SMALL)
        b = I_g(-z, p, 1.0, 1, SMALL)
        assert abs(a + b) <= 1e-12 * max(1.0, abs(a))


def test_I_cpa_flat_band_limit():
    z, p = 0.4 + 1.1j, 0.2 + 0.6j
    w = z**2 + p**2
    for n in (8, 64, 256):
        assert I_cpa(z, p, 0.0, 1, n) == pytest.approx(p / w, rel=1e-14)
        # closed-form p-derivative of the k-independent integrand
        want = (z**2 - p**2) / (w * w)
        assert dI_cpa_dp(z, p, 0.0, 1, n) == pytest.approx(want, rel=1e-14)


def test_I_cpa_against_adaptive_oracle():
    # independent adaptive quadrature of the same integrand at z = 2, p = 0
    got = I_cpa(2.0 + 0.0j, 0.0, 1.0, 1, 4096)

    def integrand(k):
        return (1.0 - 0.5 * np.cos(k)) / (4.0 + (1.0 - np.cos(k)))

    want, err = quad(integrand, 0.0, 2 * np.pi, epsabs=1e-13, epsrel=1e-13)
    want /= 2 * np.pi
    assert err < 1e-11
    assert got.imag == pytest.approx(0.0, abs=1e-14)
    assert got.real == pytest.approx(want, abs=1e-10)


def test_I_cpa_large_z_decay():
    vals = []
    for z in (1e2, 1e4):
        vals.append(abs(I_cpa(complex(z), 0.3, 1.0, 1, 256)))
    # O(1/z^2): two decades in z give four decades in magnitude
    assert vals[0] / vals[1] == pytest.approx(1e4, rel=0.05)


def test_dI_cpa_dp_matches_finite_difference():
    z, p = 0.2 + 0.9j, 0.4 + 0.3j
    h = 1e-6
    fd = (I_cpa(z, p + h, 1.0, 1, 512) - I_cpa(z, p - h, 1.0, 1, 512)) / (2 * h)
    assert dI_cpa_dp(z, p, 1.0, 1, 512) == pytest.approx(fd, rel=1e-8)


def test_analyticity_cauchy_riemann():
    # I_g is holomorphic in z away from the spectrum: both CR identities
    h = 1e-5
    for z0, p in ((0.5 + 0.8j, 0.3 + 0.1j), (0.3 + 1.6j, 0.15 + 0.4j)):
        f = lambda z: I_g(z, p, 1.0, 1, 1024)
        du_dx = (f(z0 + h).real - f(z0 - h).real) / (2 * h)
        dv_dy = (f(z0 + 1j * h).imag - f(z0 - 1j * h).imag) / (2 * h)
        du_dy = (f(z0 + 1j * h).real - f(z0 - 1j * h).real) / (2 * h)
        dv_dx = (f(z0 + h).imag - f(z0 - h).imag) / (2 * h)
        assert abs(du_dx - dv_dy) <= 1e-6
        assert abs(du_dy + dv_dx) <= 1e-6


# the doubling check compares the solved g of a curve with the doubled
# grid's; at b = 0 the solved point is p = 0, so a one-point curve checks
# I_g at z = eps + i*omega
PURE_CHAIN = ModelParams(d=1, a=0.75, b=0.0, nu=1.0)


def test_doubling_check_quiet_when_converged():
    # on 128 sites g is within 1e-9 of the 256-site value (6.2e-10 of it),
    # but not equal to it
    curve = dos_curve([0.8], 0.1, replace(PURE_CHAIN, extents=(128,)), check=True)
    assert curve.notes == ()
    # the grid's own value: the doubled grid is only compared with it
    g_n, g_2n = (I_g(0.1 + 0.8j, 0.0, 1.0, 1, n) for n in (128, 256))
    assert g_n != g_2n
    assert curve.rho[0] == g_n.real / np.pi


def test_doubling_check_flags_unresolved_broadening():
    # eps far below the grid resolution: the check must fire, and note the
    # failure with the grid's own value still the one reported
    z = 1e-4 + 0.5j
    chain = replace(PURE_CHAIN, extents=(4096,))
    curve = dos_curve([0.5], 1e-4, chain, check=True)
    g_n = I_g(z, 0.0, 1.0, 1, 4096)
    # the check takes the doubled grid's mean as one array call
    g_2n = I_g(np.array([z]), np.zeros(1, dtype=complex), 1.0, 1, 8192)[0]
    rel = abs(g_n - g_2n) / abs(g_2n)
    assert rel > 1e-9
    assert curve.notes == (
        "grid-doubling check failed at 1 of 1 points with n=4096, d=1: largest "
        f"|I_n - I_2n| / |I_2n| = {rel:.3e} at omega=0.5 (rel_tol=1e-09)",)
    assert curve.rho[0] == g_n.real / np.pi
    # unchecked, the same curve reports the same value without a note
    plain = dos_curve([0.5], 1e-4, chain)
    assert plain.notes == () and plain.rho[0] == curve.rho[0]


def test_zone_nodes_fold_the_full_grid():
    z, p, nu = 0.3 + 0.8j, 0.2 + 0.1j, 1.0
    for d, n in ((1, 7), (1, 8), (2, 8), (2, 9), (3, 6), (3, 8)):
        _, weight = _zone_nodes(d, n)
        assert abs(weight.sum() - 1.0) <= 1e-15
        full = full_symbol(d, n)
        want = np.mean(np.exp(full))
        assert abs(grid_mean(np.exp, d, n) - want) <= 1e-14 * abs(want)
        D = z * z + p * p + p * nu * (2 - full) + nu * nu * (1 - full)
        N = p + nu * (1 - full / 2)
        kernels = (I_g(z, p, nu, d, n), *I_cpa_and_derivative(z, p, nu, d, n))
        integrands = (z / D, N / D, 1 / D - N * (2 * p + nu * (2 - full)) / D**2,
                      z / D, -2 * z * N / D**2)
        for got, f in zip(kernels, integrands):
            want = np.mean(f)
            assert abs(got - want) <= 1e-14 * abs(want)
    for d in (1, 2, 3):
        n_nodes = len(_zone_nodes(d, default_points(d))[0])
        assert n_nodes == {1: 2049, 2: 8385, 3: 6545}[d]


@pytest.mark.parametrize("d,n", [(1, 7), (1, 8), (2, 8), (2, 9), (3, 7), (3, 8)])
def test_singular_closed_form_raises_and_gives_nonfinite_lanes(d, n):
    # (z, p) at nu = 1 where the closed form is not finite at some node:
    # z = p = 0 (t = 1), where D = nu^2 (1 - dlt) vanishes at the zone center
    singular = [(0j, 0j)]
    # t = -1, where D = alpha (1 + dlt) vanishes at k = (pi, ..., pi) of an
    # even grid; at d = 1 the odd grid's closed form reads 0/0 at tau = -1
    if n % 2 == 0 or d == 1:
        singular.append((0.5 + 0j, -1.5 + 0j))
    # t = 3 (alpha = 1/8, beta = 3/8, both exact) at d = 3: tau = -1 at the
    # nodes whose first two axes sit at k = 0, where D vanishes on an even
    # grid and the closed form reads 0/0 on an odd one
    if d == 3:
        singular.append((0.125j, -0.625 + 0j))
    for z, p in singular:
        for kernel in (I_g, I_cpa_and_derivative):
            with pytest.raises(ValueError, match=rf"not finite at t = .*\(d = {d}, {n} points"):
                kernel(z, p, 1.0, d, n)
    # lanes there come back not finite, beside finite lanes that equal their
    # lone-lane values bit for bit
    z = np.array([0.3 + 1.1j, *(z for z, _ in singular), 1.2 + 0.4j])
    p = np.array([0.4 + 0.2j, *(p for _, p in singular), 0.05 - 0.3j])
    lanes = I_cpa_and_derivative(z, p, 1.0, d, n)
    for x in lanes:
        assert np.isfinite(x[[0, -1]]).all() and not np.isfinite(x[1:-1]).any()
    for i in (0, -1):
        alone = I_cpa_and_derivative(z[[i]], p[[i]], 1.0, d, n)
        assert all(a[0] == b[i] for a, b in zip(alone, lanes))
    # no closed form at p = -nu, where the I_cpa form has a pole and g = z/D
    # does not, nor at alpha = q^2 + z^2 = 0
    for z0, p0 in ((0.5j, -1 + 0j), (0.5j, -0.5 + 0j)):
        for kernel in (I_g, I_cpa_and_derivative):
            with pytest.raises(ValueError, match="p = -nu or alpha"):
                kernel(z0, p0, 1.0, d, n)
    I, dI, g, dIz = I_cpa_and_derivative(np.array([0.5j]), np.array([-1 + 0j]), 1.0, d, n)
    assert not np.isfinite(I[0]) and not np.isfinite(dI[0]) and np.isfinite(g[0])
    assert not np.isfinite(dIz[0])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_derivatives_are_finite_wherever_z_squared_is(d):
    # alpha^2 overflows past |z| ~ 1e77, z^2 past 1e154: both derivatives
    # are written in scaled forms, so they stay finite in between
    n = default_points(d)
    p = 0.47 + 1e-3j
    for w in (1e80, 1e140, 1e150):
        z = 1e-3 + 1j * w
        for nu in (1.0, 0.0):
            kernels = I_cpa_and_derivative(z, p, nu, d, n)
            assert all(cmath.isfinite(k) for k in kernels)
            # I_cpa -> (p + nu)/z^2 at large z, without cancellation in either
            # derivative; dI_cpa/dz ~ 1/z^3 is below the doubles past 1e103
            want = (1 / (z * z), -2 * (p + nu) / z / z / z if w < 1e103 else 0j)
            for got, x in zip(kernels[1::2], want):
                assert abs(got - x) <= 1e-12 * abs(x)


@pytest.mark.parametrize("d,n", [(1, 7), (1, 4096), (2, 33), (2, 64), (2, 101), (2, 256),
                                 (3, 9), (3, 16), (3, 64), (3, 65)])
def test_closed_form_means_match_meshgrid(d, n):
    # the flat-band values, exactly, at t = 0
    assert _excess(0j, d, n) == (0, 0)
    # means of 1/(1 - t dlt) and of its square, at 1/t in both half-planes
    # near and away from the band [-1, 1], and on the real axis outside it
    dlt = full_symbol(d, n).ravel()
    rng = np.random.default_rng(n)
    im = 10.0 ** rng.uniform(-3, np.log10(3), 24) * rng.choice([-1, 1], 24)
    inv_t = np.concatenate([rng.uniform(-1.5, 1.5, 24) + 1j * im,
                            [-3.0, -1.25, -1.01, 1.01, 1.25, 3.0]])
    t = 1 / inv_t
    # the same t as one array of lanes
    lanes = _excess(t, d, n)
    for i, ti in enumerate(t.tolist()):
        term = 1 / (1 - ti * dlt)
        scalar = _excess(ti, d, n)
        for lane, excess, terms in zip(lanes, scalar, (term, term * term)):
            bound = 1e-12 * np.mean(np.abs(terms))
            assert abs(1 + excess - np.mean(terms)) <= bound
            assert abs(1 + lane[i] - np.mean(terms)) <= bound
            # numpy's and cmath's complex arithmetic round differently; the
            # node sums at d >= 2 are the same numpy operations
            if d == 1:
                assert abs(lane[i] - excess) <= 1e-14 * abs(excess)
            else:
                assert lane[i] == excess


def test_vanishing_nu_gives_flat_band_kernels():
    for d in (1, 2, 3):
        n = default_points(d)
        for z, p in ((0.4 + 1.1j, 0.2 + 0.6j), (1e-3 + 2.0j, 0.05 - 0.3j)):
            def kernels(nu):
                return I_g(z, p, nu, d, n), *I_cpa_and_derivative(z, p, nu, d, n)

            for nu in (1e-300, 5e-324):
                for got, want in zip(kernels(nu), kernels(0.0)):
                    assert cmath.isfinite(got)
                    assert abs(got - want) <= 1e-14 * abs(want)


def test_default_grid_sizes():
    assert default_points(1) == 4096
    assert default_points(2) == 256
    assert default_points(3) == 64
    # no default for a lattice above d = 3; at nu = 0 the means are the
    # flat-band values on any grid
    with pytest.raises(ValueError, match="--kgrid"):
        default_points(4)
    assert default_points(4, 0.0) == 16


def test_spec_validation():
    # a lattice's grid is its extents, checked where the model is built;
    # the zone mean takes equal extents only
    with pytest.raises(ValueError, match="at least 3 sites"):
        ModelParams(d=1, extents=(2,), a=1.0, b=1.0, nu=1.0)
    for extents in ((3,), (4,), (8, 8, 8, 8)):
        params = ModelParams(d=len(extents), extents=extents, a=1.0, b=1.0, nu=1.0)
        assert points_per_dim(params) == extents[0]
    with pytest.raises(ValueError, match="equal extents"):
        points_per_dim(ModelParams(d=2, extents=(4, 3), a=1.0, b=1.0, nu=1.0))


# lanes in both half-planes of Re z, near and away from the pole of D's flat
# part at q^2 + z^2 = 0 (q = p + nu)
LANE_Z = [s * x + 1j * y for s in (1, -1) for x, y in ((0.3, 1.1), (1e-2, 0.7), (0.5, 2.5))]
LANE_P = [0.4 + 0.2j, 0.05 - 0.3j, 1.2 + 0.8j]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("nu", [1.0, 0.0])
def test_lanes_match_scalar_kernel(d, nu):
    n = default_points(d, nu)
    z, p = (np.array(v) for v in zip(*[(z, p) for z in LANE_Z for p in LANE_P]))
    lanes = I_cpa_and_derivative(z, p, nu, d, n)
    # numpy's complex division rounds differently from Python's, and the
    # closed form amplifies that by up to the square of the cancellation
    # kappa in alpha = q^2 + z^2 (1.1e-12 relative in dI/dp at kappa = 22)
    q = p + nu
    kappa = (abs(q) ** 2 + abs(z) ** 2) / abs(q * q + z * z)
    for i in range(z.size):
        scalar = I_cpa_and_derivative(complex(z[i]), complex(p[i]), nu, d, n)
        for got, want in zip(lanes, scalar):
            assert abs(got[i] - want) <= 1e-14 * kappa[i] ** 2 * abs(want)
    # a lane's values do not depend on the other lanes or on the blocks
    # the nodes are summed in
    for i in range(z.size):
        alone = I_cpa_and_derivative(z[i : i + 1], p[i : i + 1], nu, d, n)
        assert all(a[0] == b[i] for a, b in zip(alone, lanes))
