import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bosondos import KernelParams, ModelParams, I_cpa, I_g, dos_curve
from bosondos.bzquad import (
    I_cpa_and_derivative,
    _alpha_beta,
    _symbol_excess,
    _zone_nodes,
    dI_cpa_dp,
    default_points_per_dim,
)
from bosondos.model import delta_k

SMALL = 64


def grid_mean(f, d, n):
    """Orbit-weighted mean of a function of the Laplacian symbol dlt over
    the folded nodes of the n^d grid."""
    dlt, weight, _ = _zone_nodes(d, n)
    return (f(dlt) * weight).sum()


def full_symbol(d, n):
    """The symbol at every point of the unfolded n^d grid."""
    axes = np.meshgrid(*(2 * np.pi * np.arange(n) / n,) * d, indexing="ij")
    return sum(np.cos(k) for k in axes) / d


def D_of(kp, k):
    alpha, beta = _alpha_beta(kp)
    return alpha - beta * delta_k(k)


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
    kp = KernelParams(z=0.3 + 0.7j, p=0.0, nu=1.2)
    dlt = np.cos(1.1)
    got = D_of(kp, [1.1])
    assert got == pytest.approx(kp.z**2 + kp.nu**2 * (1 - dlt), abs=1e-15)


def test_kernel_D_reduces_without_lattice():
    kp = KernelParams(z=0.3 + 0.7j, p=0.4 - 0.1j, nu=0.0)
    got = D_of(kp, [2.0])
    assert got == pytest.approx(kp.z**2 + kp.p**2, abs=1e-15)


def test_kernel_D_zone_center():
    kp = KernelParams(z=1.0 + 1.0j, p=0.5j, nu=0.8)
    want = kp.z**2 + kp.p**2 + kp.p * kp.nu
    assert D_of(kp, [0.0]) == pytest.approx(want, abs=1e-15)


def test_I_g_flat_band_limit_grid_independent():
    kp = KernelParams(z=0.2 + 0.9j, p=0.3 + 0.2j, nu=0.0)
    want = kp.z / (kp.z**2 + kp.p**2)
    for n in (8, 64, 256):
        got = I_g(kp, 1, n)
        assert got == pytest.approx(want, rel=1e-14)


def test_I_g_pure_chain_density():
    # Re I_g / pi approaches the clean chain density for small Re z
    eps, omega = 1e-3, 1.0
    kp = KernelParams(z=eps + 1j * omega, p=0.0, nu=1.0)
    got = I_g(kp, 1, 65536).real / np.pi
    want = 1.0 / (np.pi * np.sqrt(2.0 - omega**2))
    # leading deviation is the O(eps) Lorentzian broadening
    assert got == pytest.approx(want, abs=5e-3)


def test_I_g_odd_in_z_at_fixed_p():
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = complex(rng.uniform(0.1, 2), rng.uniform(-2, 2))
        p = complex(rng.uniform(0.05, 1), rng.uniform(-1, 1))
        kp = KernelParams(z=z, p=p, nu=1.0)
        kpm = KernelParams(z=-z, p=p, nu=1.0)
        a = I_g(kp, 1, SMALL)
        b = I_g(kpm, 1, SMALL)
        assert abs(a + b) <= 1e-12 * max(1.0, abs(a))


def test_I_cpa_flat_band_limit():
    kp = KernelParams(z=0.4 + 1.1j, p=0.2 + 0.6j, nu=0.0)
    w = kp.z**2 + kp.p**2
    for n in (8, 64, 256):
        assert I_cpa(kp, 1, n) == pytest.approx(kp.p / w, rel=1e-14)
        # closed-form p-derivative of the k-independent integrand
        want = (kp.z**2 - kp.p**2) / (w * w)
        assert dI_cpa_dp(kp, 1, n) == pytest.approx(want, rel=1e-14)


def test_I_cpa_against_adaptive_oracle():
    # independent adaptive quadrature of the same integrand at z = 2, p = 0
    kp = KernelParams(z=2.0 + 0.0j, p=0.0, nu=1.0)
    got = I_cpa(kp, 1, 4096)

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
        kp = KernelParams(z=complex(z), p=0.3, nu=1.0)
        vals.append(abs(I_cpa(kp, 1, 256)))
    # O(1/z^2): two decades in z give four decades in magnitude
    assert vals[0] / vals[1] == pytest.approx(1e4, rel=0.05)


def test_dI_cpa_dp_matches_finite_difference():
    kp = KernelParams(z=0.2 + 0.9j, p=0.4 + 0.3j, nu=1.0)
    h = 1e-6
    fd = (
        I_cpa(KernelParams(kp.z, kp.p + h, kp.nu), 1, 512)
        - I_cpa(KernelParams(kp.z, kp.p - h, kp.nu), 1, 512)
    ) / (2 * h)
    assert dI_cpa_dp(kp, 1, 512) == pytest.approx(fd, rel=1e-8)


def test_analyticity_cauchy_riemann():
    # I_g is holomorphic in z away from the spectrum: both CR identities
    h = 1e-5
    for z0, p in ((0.5 + 0.8j, 0.3 + 0.1j), (0.3 + 1.6j, 0.15 + 0.4j)):
        f = lambda z: I_g(KernelParams(z=z, p=p, nu=1.0), 1, 1024)
        du_dx = (f(z0 + h).real - f(z0 - h).real) / (2 * h)
        dv_dy = (f(z0 + 1j * h).imag - f(z0 - 1j * h).imag) / (2 * h)
        du_dy = (f(z0 + 1j * h).real - f(z0 - 1j * h).real) / (2 * h)
        dv_dx = (f(z0 + h).imag - f(z0 - h).imag) / (2 * h)
        assert abs(du_dx - dv_dy) <= 1e-6
        assert abs(du_dy + dv_dx) <= 1e-6


# the doubling check runs on the reported values of a curve; at b = 0 the
# solved point is p = 0, so a one-point curve checks I_g at z = eps + i*omega
PURE_CHAIN = ModelParams(d=1, a=0.75, b=0.0, nu=1.0)


def test_doubling_check_quiet_when_converged():
    curve = dos_curve([0.8], 0.1, PURE_CHAIN, 256, check=True)
    assert curve.notes == ()
    assert curve.rho[0] == I_g(KernelParams(z=0.1 + 0.8j, p=0.0, nu=1.0), 1, 512).real / np.pi


def test_doubling_check_flags_unresolved_broadening():
    # eps far below the grid resolution: the check must fire, and the
    # doubled grid's value is the one reported
    kp = KernelParams(z=1e-4 + 0.5j, p=0.0, nu=1.0)
    curve = dos_curve([0.5], 1e-4, PURE_CHAIN, 4096, check=True)
    g_n, g_2n = I_g(kp, 1, 4096), I_g(kp, 1, 8192)
    assert abs(g_n - g_2n) > 1e-9 * abs(g_2n)
    assert curve.notes == (
        f"grid-doubling check failed: |I_n - I_2n| = {abs(g_n - g_2n):.3e} "
        "exceeds rel_tol=1e-09 * |I_2n| at n=4096, d=1",)
    assert curve.rho[0] == g_2n.real / np.pi
    # unchecked, the same curve reports the grid's own value without a note
    plain = dos_curve([0.5], 1e-4, PURE_CHAIN, 4096)
    assert plain.notes == () and plain.rho[0] == g_n.real / np.pi


def test_nonfinite_sample_identifies_grid_point():
    # z = p = 0 makes D = nu^2 (1 - dlt) vanish at the zone center
    with pytest.raises(ValueError, match=r"grid point k=\(0\.0,\)"):
        I_g(KernelParams(0, 0, 1), 1, SMALL)
    # t = beta/alpha = -1: D = alpha (1 + dlt) vanishes at k = pi on an even
    # grid; on an odd one the closed form reads 0/0 and the node sum is finite
    kp = KernelParams(z=0.5, p=-1.5, nu=1.0)
    with pytest.raises(ValueError, match=r"grid point k=\(3\.14159\d*,\)"):
        I_g(kp, 1, 8)
    dlt = full_symbol(1, 7)
    want = np.mean(kp.z / (0.5 * (1 + dlt)))
    assert abs(I_g(kp, 1, 7) - want) <= 1e-14 * abs(want)


def test_zone_nodes_fold_the_full_grid():
    kp = KernelParams(z=0.3 + 0.8j, p=0.2 + 0.1j, nu=1.0)
    z, p, nu = kp.z, kp.p, kp.nu
    for d, n in ((1, 7), (1, 8), (2, 8), (2, 9), (3, 6), (3, 8)):
        _, weight, _ = _zone_nodes(d, n)
        assert abs(weight.sum() - 1.0) <= 1e-15
        full = full_symbol(d, n)
        want = np.mean(np.exp(full))
        assert abs(grid_mean(np.exp, d, n) - want) <= 1e-14 * abs(want)
        D = z * z + p * p + p * nu * (2 - full) + nu * nu * (1 - full)
        N = p + nu * (1 - full / 2)
        kernels = (I_g(kp, d, n), *I_cpa_and_derivative(kp, d, n))
        integrands = (z / D, N / D, 1 / D - N * (2 * p + nu * (2 - full)) / D**2)
        for got, f in zip(kernels, integrands):
            want = np.mean(f)
            assert abs(got - want) <= 1e-14 * abs(want)
    for d in (1, 2, 3):
        n_nodes = len(_zone_nodes(d, default_points_per_dim(d, 1.0))[0])
        assert n_nodes == {1: 2049, 2: 8385, 3: 6545}[d]
    # the zone-center node is named by its grid point
    with pytest.raises(ValueError, match=r"grid point k=\(0\.0, 0\.0\)"):
        I_g(KernelParams(0, 0, 1), 2, SMALL)


@pytest.mark.parametrize("d,n", [(1, 7), (1, 4096), (2, 33), (2, 64), (2, 101), (2, 256),
                                 (3, 9), (3, 16), (3, 64), (3, 65)])
def test_closed_form_means_match_meshgrid(d, n):
    # the flat-band values, exactly, at t = 0
    assert _symbol_excess(0j, d, n) == (0, 0)
    # means of 1/(1 - t dlt) and of its square, at 1/t in both half-planes
    # near and away from the band [-1, 1], and on the real axis outside it
    dlt = full_symbol(d, n).ravel()
    rng = np.random.default_rng(n)
    im = 10.0 ** rng.uniform(-3, np.log10(3), 24) * rng.choice([-1, 1], 24)
    inv_t = np.concatenate([rng.uniform(-1.5, 1.5, 24) + 1j * im,
                            [-3.0, -1.25, -1.01, 1.01, 1.25, 3.0]])
    for t in 1 / inv_t:
        term = 1 / (1 - t * dlt)
        for excess, terms in zip(_symbol_excess(t, d, n), (term, term * term)):
            assert abs(1 + excess - np.mean(terms)) <= 1e-12 * np.mean(np.abs(terms))


def test_vanishing_nu_gives_flat_band_kernels():
    for d in (1, 2, 3):
        n = default_points_per_dim(d, 1.0)
        for z, p in ((0.4 + 1.1j, 0.2 + 0.6j), (1e-3 + 2.0j, 0.05 - 0.3j)):
            def kernels(nu):
                kp = KernelParams(z=z, p=p, nu=nu)
                return I_g(kp, d, n), *I_cpa_and_derivative(kp, d, n)

            for nu in (1e-300, 5e-324):
                for got, want in zip(kernels(nu), kernels(0.0)):
                    assert cmath.isfinite(got)
                    assert abs(got - want) <= 1e-14 * abs(want)


def test_default_grid_sizes():
    assert default_points_per_dim(1, 1.0) == 4096
    assert default_points_per_dim(2, 1.0) == 256
    assert default_points_per_dim(3, 1.0) == 64
    # no default for a lattice above d = 3; at nu = 0 the means are the
    # flat-band values on any grid
    with pytest.raises(ValueError, match="--kgrid"):
        default_points_per_dim(4, 1.0)
    assert default_points_per_dim(4, 0.0) == 16


def test_spec_validation():
    # a given grid is checked where the default is resolved
    for n in (2, 3):
        with pytest.raises(ValueError, match="kgrid must be at least 4"):
            default_points_per_dim(1, 1.0, n)
    assert default_points_per_dim(1, 1.0, 4) == 4
    assert default_points_per_dim(4, 1.0, 8) == 8


# lanes in both half-planes of Re z, near and away from the pole of D's flat
# part at q^2 + z^2 = 0 (q = p + nu)
LANE_Z = [s * x + 1j * y for s in (1, -1) for x, y in ((0.3, 1.1), (1e-2, 0.7), (0.5, 2.5))]
LANE_P = [0.4 + 0.2j, 0.05 - 0.3j, 1.2 + 0.8j]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("nu", [1.0, 0.0])
def test_lanes_match_scalar_kernel(d, nu):
    n = default_points_per_dim(d, nu)
    z, p = (np.array(v) for v in zip(*[(z, p) for z in LANE_Z for p in LANE_P]))
    lanes = I_cpa_and_derivative(KernelParams(z, p, nu), d, n)
    # numpy's complex division rounds differently from Python's, and the
    # closed form amplifies that by up to the square of the cancellation
    # kappa in alpha = q^2 + z^2 (1.1e-12 relative in dI/dp at kappa = 22)
    q = p + nu
    kappa = (abs(q) ** 2 + abs(z) ** 2) / abs(q * q + z * z)
    for i in range(z.size):
        scalar = I_cpa_and_derivative(KernelParams(complex(z[i]), complex(p[i]), nu), d, n)
        for got, want in zip(lanes, scalar):
            assert abs(got[i] - want) <= 1e-14 * kappa[i] ** 2 * abs(want)
    # a lane's values do not depend on the other lanes or on the blocks
    # the nodes are summed in
    for i in range(z.size):
        alone = I_cpa_and_derivative(KernelParams(z[i : i + 1], p[i : i + 1], nu), d, n)
        assert all(a[0] == b[i] for a, b in zip(alone, lanes))


def test_nonfinite_lane_does_not_raise():
    # the scalar kernel raises at the zone center (z = p = 0) and at
    # p = -nu; a lane there comes back not finite, beside finite ones
    with pytest.raises(ValueError, match=r"grid point k=\(0\.0,\)"):
        I_cpa_and_derivative(KernelParams(0j, 0j, 1.0), 1, SMALL)
    with pytest.raises(ValueError, match="p = -nu"):
        I_cpa_and_derivative(KernelParams(0.5j, -1 + 0j, 1.0), 1, SMALL)
    z = np.array([0.3 + 1.1j, 0j, 0.5j, 0.3 + 1.1j])
    p = np.array([0.4 + 0.2j, 0j, -1 + 0j, 0.4 + 0.2j])
    for d in (1, 2, 3):
        I, dI, g = I_cpa_and_derivative(KernelParams(z, p, 1.0), d, SMALL)
        for x in I, dI, g:
            assert np.isfinite(x[[0, 3]]).all() and not np.isfinite(x[1])
        # g = z/D has no pole at p = -nu, the I_cpa form does
        assert not np.isfinite(I[2]) and not np.isfinite(dI[2])
    # at the removable point of an odd grid the lane takes the node sum,
    # as the scalar does
    kp = KernelParams(z=0.5 + 0j, p=-1.5 + 0j, nu=1.0)
    lane = I_cpa_and_derivative(KernelParams(np.array([kp.z]), np.array([kp.p]), 1.0), 1, 7)
    assert [x[0] for x in lane] == list(I_cpa_and_derivative(kp, 1, 7))
