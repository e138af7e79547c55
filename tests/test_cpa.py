import numpy as np
import pytest

from bosondos import (
    ModelParams,
    QuadratureSpec,
    SolverError,
    cpa_residual,
    continuation_sweep,
    dos_curve,
    find_gap_edge,
    g_of_z,
    rmt_scaled_a1,
    solve_p,
)
from bosondos import cpa
from bosondos.bzquad import I_g, KernelParams
from bosondos.cpa import _a1_scaled_root

RMT_A2 = ModelParams(a=2.0, b=1.0, nu=0.0)
RMT_A1 = ModelParams(a=1.0, b=1.0, nu=0.0)
LATTICE = ModelParams(d=1, a=0.75, b=0.63, nu=1.0)


class TestResidual:
    def test_flat_band_closed_form(self):
        p, z = 0.4 + 0.2j, 0.3 + 1.1j
        got = cpa_residual(p, z, RMT_A2)
        want = 1.0 / RMT_A2.b - RMT_A2.a / p + p / (z * z + p * p)
        assert got == pytest.approx(want, rel=1e-14)

    def test_zero_p_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            cpa_residual(0.0, 1.0 + 0.5j, RMT_A2)

    def test_no_equation_without_disorder(self):
        clean = ModelParams(d=1, a=0.75, b=0.0, nu=1.0)
        with pytest.raises(ValueError, match="pure system"):
            cpa_residual(0.1, 1.0, clean)

    def test_vanishes_on_returned_potential(self):
        for params, z in ((LATTICE, 1e-3 + 0.9j), (RMT_A2, 0.01 + 1.5j)):
            cp = solve_p(z, params)
            assert cp.residual <= cpa.NEWTON_TOL
            # raw mismatch of the uncleared equation, at O(1) parameters
            assert abs(cpa_residual(cp.p, z, params)) <= 1e-10


class TestSolveP:
    def test_large_z_asymptote(self):
        # a/p ~ 1/b once the integral term decays: p -> a*b
        params = ModelParams(d=1, a=0.75, b=2.0, nu=1.0)
        cp = solve_p(100.0 + 0.0j, params)
        assert abs(cp.p / (0.75 * params.b) - 1.0) < 0.01

    def test_weak_disorder_potential_vanishes(self):
        params = ModelParams(d=1, a=0.75, b=1e-6, nu=1.0)
        cp = solve_p(0.1 + 0.5j, params)
        assert abs(cp.p) <= 1e-5

    def test_critical_ratio_cubic_relation(self):
        # eliminating p from the flat-band equations at a = 1 leaves
        # b^2 g^3 + g - 1/z = 0; the solver must satisfy it on the branch
        for omega in (0.3, 1.0, 2.0, 2.4):
            z = 1e-9 + 1j * omega
            cp = solve_p(z, RMT_A1)
            g = z / (z * z + cp.p * cp.p)
            assert abs(g**3 + g - 1.0 / z) <= 1e-9

    def test_seeded_solve(self):
        z = 0.2 + 1.0j
        ref = solve_p(z, LATTICE)
        cp = solve_p(z, LATTICE, seed_p=ref.p * 1.05)
        assert cp.p == pytest.approx(ref.p, rel=1e-10)
        assert cp.branch_tag.startswith("newton from seed")

    def test_left_half_plane_rejected(self):
        with pytest.raises(ValueError, match="Re z > 0"):
            solve_p(-1.0 + 0.5j, LATTICE)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            solve_p(1.0 + 0.5j, LATTICE, seed_p=0.0)

    def test_nonconvergence_carries_last_iterate(self, monkeypatch):
        monkeypatch.setattr(cpa, "MAX_ITER", 1)
        with pytest.raises(SolverError) as err:
            solve_p(0.01 + 0.34j, RMT_A2, seed_p=50.0 + 50.0j)
        assert err.value.last_p is not None

    def test_pure_system_short_circuit(self):
        clean = ModelParams(d=1, a=0.75, b=0.0, nu=1.0)
        cp = solve_p(0.5 + 0.5j, clean)
        assert cp.p == 0 and cp.residual == 0.0


class TestContinuationSweep:
    def test_gap_versus_bulk_in_flat_band_limit(self):
        omegas = np.array([0.05, 0.15, 1.0, 1.5])
        sweep = continuation_sweep(omegas, 1e-9, RMT_A2)
        rho = np.array(
            [(c.z / (c.z**2 + c.p**2)).real / np.pi for c in sweep]
        )
        assert np.all(rho[:2] <= 1e-6)  # inside the gap
        assert np.all(rho[2:] > 1e-2)  # in the bulk

    def test_van_hove_remnant_survives_weak_disorder(self):
        params = ModelParams(d=1, a=0.75, b=0.15, nu=1.0)
        omegas = np.linspace(0.8, 1.9, 140)
        curve = dos_curve(omegas, 1e-3, params)
        peak = omegas[np.argmax(curve.rho)]
        assert abs(peak - np.sqrt(2.0)) / np.sqrt(2.0) < 0.1

    def test_sweep_direction_independence(self):
        omegas = np.linspace(0.05, 2.6, 60)
        up = continuation_sweep(omegas, 1e-3, LATTICE)
        down = continuation_sweep(omegas[::-1], 1e-3, LATTICE)
        p_up = np.array([c.p for c in up])
        p_down = np.array([c.p for c in down])[::-1]
        assert np.abs(p_up - p_down).max() <= 1e-8

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            continuation_sweep(np.array([]), 1e-3, LATTICE)
        with pytest.raises(ValueError, match="eps"):
            continuation_sweep(np.array([0.5]), -1.0, LATTICE)


class TestGOfZ:
    def test_odd_under_reflection(self):
        z = 0.3 + 1.1j
        assert g_of_z(-z, LATTICE) == -g_of_z(z, LATTICE)

    def test_imaginary_axis_rejected(self):
        with pytest.raises(ValueError, match="discontinuous"):
            g_of_z(1.0j, LATTICE)

    def test_flat_band_closed_form(self):
        z = 0.2 + 1.3j
        cp = solve_p(z, RMT_A2)
        assert g_of_z(z, RMT_A2) == pytest.approx(
            z / (z * z + cp.p * cp.p), rel=1e-12
        )

    def test_pure_system_is_clean_resolvent(self):
        clean = ModelParams(d=1, a=0.75, b=0.0, nu=1.0)
        spec = QuadratureSpec(points_per_dim=2048)
        z = 0.4 + 0.9j
        want = I_g(KernelParams(z=z, p=0.0, nu=1.0), 1, spec)
        assert g_of_z(z, clean, spec) == pytest.approx(want, rel=1e-15)


class TestDosCurve:
    def test_flat_band_point_mass_reported_separately(self):
        params = ModelParams(a=0.75, b=1.0, nu=0.0)
        curve = dos_curve(np.linspace(0.05, 3.0, 40), 1e-3, params)
        assert curve.dirac_mass_at_zero == 0.25

    def test_no_point_mass_on_lattice_or_above_critical_ratio(self):
        curve = dos_curve(np.linspace(0.1, 2.0, 10), 1e-3, LATTICE)
        assert curve.dirac_mass_at_zero == 0.0
        curve = dos_curve(np.linspace(0.1, 2.0, 10), 1e-3, RMT_A2)
        assert curve.dirac_mass_at_zero == 0.0

    def test_normalization_with_support_covered(self):
        omegas = np.linspace(0.01, 3.2, 400)
        curve = dos_curve(omegas, 1e-3, LATTICE)
        assert abs(curve.normalization - 1.0) <= 0.02
        assert curve.rho.min() >= -1e-9

    @pytest.mark.parametrize("richardson", [False, True])
    def test_point_mass_kept_out_of_rho(self, richardson):
        # the pole (1 - a)/z of g is booked as dirac_mass_at_zero only; left
        # in rho as an eps-wide Lorentzian it would count that mass twice
        params = ModelParams(a=0.75, b=1.0, nu=0.0)
        omegas = np.linspace(5e-3, 3.0, 600)
        curve = dos_curve(omegas, 1e-3, params, richardson=richardson)
        head = 2.0 * omegas[0] * curve.rho[0]  # the mass below the grid
        assert abs(curve.normalization + head - 1.0) <= 2e-3
        assert curve.rho.min() >= 0.0

    def test_normalization_on_reversed_grid(self):
        omegas = np.linspace(0.01, 3.0, 300)
        up = dos_curve(omegas, 1e-3, RMT_A1)
        down = dos_curve(omegas[::-1], 1e-3, RMT_A1)
        assert down.normalization == pytest.approx(up.normalization, rel=1e-12)

    def test_pure_chain_density(self):
        # no self-consistency at b = 0: the curve is the clean-chain density
        clean = ModelParams(d=1, a=0.75, b=0.0, nu=1.0)
        spec = QuadratureSpec(points_per_dim=65536)
        omegas = np.array([0.3, 0.7, 1.1])
        curve = dos_curve(omegas, 1e-4, clean, spec)
        want = 1.0 / (np.pi * np.sqrt(2.0 - omegas**2))
        assert np.abs(curve.rho - want).max() <= 1e-3

    def test_richardson_removes_leading_broadening(self):
        clean = ModelParams(d=1, a=0.75, b=0.0, nu=1.0)
        spec = QuadratureSpec(points_per_dim=65536)
        omegas = np.array([0.9])
        want = 1.0 / (np.pi * np.sqrt(2.0 - omegas**2))
        plain = dos_curve(omegas, 2e-3, clean, spec)
        rich = dos_curve(omegas, 2e-3, clean, spec, richardson=True)
        assert abs(rich.rho[0] - want[0]) < abs(plain.rho[0] - want[0])

    def test_eps_extrapolation_bound(self):
        # first-order broadening: halving eps moves smooth interior points
        # by at most ~eps (empirical constant 2)
        omegas = np.linspace(0.5, 1.2, 8)
        eps = 1e-3
        r1 = dos_curve(omegas, eps, LATTICE).rho
        r2 = dos_curve(omegas, eps / 2, LATTICE).rho
        assert np.abs(r1 - r2).max() <= 2.0 * eps

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(ValueError, match="positive"):
            dos_curve(np.array([0.0, 0.5]), 1e-3, LATTICE)

    def test_residual_guarantee_along_sweep(self):
        curve = dos_curve(np.linspace(0.1, 2.0, 30), 1e-3, LATTICE)
        assert curve.residuals.max() <= cpa.NEWTON_TOL


class TestScaledCriticalRatio:
    def test_large_x_series(self):
        # gt = 1/x + 1/x^3 + O(x^-5)
        for x in (50.0, 200.0):
            root = _a1_scaled_root(x)
            assert root.imag == 0.0
            assert abs(root - 1.0 / x) <= 2.0 / x**3

    def test_small_x_power_law(self):
        x = np.logspace(-6, -3, 40)
        rho = rmt_scaled_a1(x)
        slope = np.polyfit(np.log(x), np.log(rho), 1)[0]
        assert slope == pytest.approx(-1.0 / 3.0, abs=0.02)

    def test_density_vanishes_past_edge(self):
        x_edge = 1.5 * np.sqrt(3.0)
        assert np.all(rmt_scaled_a1(np.array([x_edge * 1.01, 5.0, 50.0])) == 0.0)
        assert np.all(rmt_scaled_a1(np.array([0.5, 1.0, x_edge * 0.99])) > 0.0)

    def test_consistent_with_direct_solver(self):
        # same quantity from two code paths: the scaled cubic at a = 1 and
        # the Newton branch of the flat-band equations
        b = 1.0
        for x in (0.5, 1.0, 2.0):
            z = 1e-12 + 1j * b * x
            cp = solve_p(z, RMT_A1)
            rho = (z / (z * z + cp.p**2)).real / np.pi
            assert abs(rmt_scaled_a1([x])[0] - b * rho) <= 1e-9

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            rmt_scaled_a1([0.0, 1.0])
        with pytest.raises(ValueError):
            rmt_scaled_a1([-0.5])


class TestLimitConsistency:
    def test_flat_band_limit_of_lattice_path(self):
        # nu -> 0 through the quadrature path lands on the dedicated
        # flat-band formulas
        rng = np.random.default_rng(5)
        spec = QuadratureSpec(points_per_dim=64)
        for _ in range(20):
            a = rng.uniform(0.5, 2.5)
            b = rng.uniform(0.5, 2.0)
            z = complex(rng.uniform(0.05, 1.0), rng.uniform(0.0, 2.5))
            rmt = ModelParams(a=a, b=b, nu=0.0)
            near = ModelParams(d=1, a=a, b=b, nu=1e-12)
            assert abs(g_of_z(z, near, spec) - g_of_z(z, rmt)) <= 1e-8

    def test_weak_disorder_matches_clean_resolvent(self):
        clean = ModelParams(d=1, a=0.75, b=0.0, nu=1.0)
        spec = QuadratureSpec(points_per_dim=4096)
        omegas = np.linspace(0.2, 1.0, 9)
        r0 = dos_curve(omegas, 1e-3, clean, spec).rho
        tiny = ModelParams(d=1, a=0.75, b=1e-12, nu=1.0)
        r1 = dos_curve(omegas, 1e-3, tiny, spec).rho
        assert np.abs(r1 - r0).max() <= 1e-10
        weak = ModelParams(d=1, a=0.75, b=1e-8, nu=1.0)
        r2 = dos_curve(omegas, 1e-3, weak, spec).rho
        assert np.abs(r2 - r0).max() <= 1e-4


class TestGapEdge:
    def test_gap_edge_positive_above_critical_ratio(self):
        edge = find_gap_edge(RMT_A2)
        assert 0.2 < edge < 0.5
        # the density stays below threshold strictly inside
        for frac in (0.25, 0.5, 0.9):
            cp = solve_p(1e-9 + 1j * frac * edge, RMT_A2)
            rho = (cp.z / (cp.z**2 + cp.p**2)).real / np.pi
            assert rho <= 1e-6

    @pytest.mark.parametrize("a", [1.25, 1.5, 2.0])
    def test_gap_edge_against_algebraic_oracle(self, a):
        # at z = i*omega the flat-band equation clears to the real cubic
        # p^3 - b(a-1)p^2 - omega^2 p + a b omega^2 = 0; the gap closes
        # where its complex root pair first appears (discriminant zero)
        def has_complex_pair(omega):
            roots = np.roots([1.0, -(a - 1.0), -omega**2, a * omega**2])
            return np.any(np.abs(roots.imag) > 1e-9)

        lo, hi = 1e-6, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if not has_complex_pair(mid) else (lo, mid)
        algebraic = 0.5 * (lo + hi)
        edge = find_gap_edge(ModelParams(a=a, b=1.0, nu=0.0))
        assert edge == pytest.approx(algebraic, rel=1e-3)

    def test_no_gap_below_critical_ratio(self):
        assert find_gap_edge(ModelParams(a=0.75, b=1.0, nu=0.0)) == 0.0
