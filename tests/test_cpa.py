import numpy as np
import pytest

from bosondos import (
    ModelParams,
    SolverError,
    continuation_sweep,
    dos_curve,
    find_gap_edge,
    g_of_z,
    rmt_scaled_a1,
    solve_p,
)
from bosondos import bzquad, cpa
from bosondos.bzquad import I_cpa, I_g, KernelParams
from bosondos.cpa import _a1_scaled_root

RMT_A2 = ModelParams(a=2.0, b=1.0, nu=0.0)
RMT_A1 = ModelParams(a=1.0, b=1.0, nu=0.0)
LATTICE = ModelParams(d=1, a=0.75, b=0.63, nu=1.0)


def residual(p, z, params):
    """Mismatch 1/b - a/p + I_cpa(z, p) of the uncleared equation, on the
    default grid; zero exactly on a solution."""
    n = bzquad.default_points_per_dim(params.d, params.nu)
    return 1.0 / params.b - params.a / p + I_cpa(KernelParams(z, p, params.nu), params.d, n)


class TestResidual:
    def test_flat_band_closed_form(self):
        p, z = 0.4 + 0.2j, 0.3 + 1.1j
        got = residual(p, z, RMT_A2)
        want = 1.0 / RMT_A2.b - RMT_A2.a / p + p / (z * z + p * p)
        assert got == pytest.approx(want, rel=1e-14)

    def test_vanishes_on_returned_potential(self):
        for params, z in ((LATTICE, 1e-3 + 0.9j), (RMT_A2, 0.01 + 1.5j)):
            cp = solve_p(z, params)
            assert cp.residual <= cpa.NEWTON_TOL
            # raw mismatch of the uncleared equation, at O(1) parameters
            assert abs(residual(cp.p, z, params)) <= 1e-10


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
        p, g, _, its, _ = cpa._newton(z, ref.p * 1.05, LATTICE, 4096)
        assert p == pytest.approx(ref.p, rel=1e-10)
        assert g == pytest.approx(ref.g, rel=1e-10)
        assert its > 0

    def test_left_half_plane_rejected(self):
        with pytest.raises(ValueError, match="Re z > 0"):
            solve_p(-1.0 + 0.5j, LATTICE)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            cpa._newton(1.0 + 0.5j, 0.0, LATTICE, 4096)

    def test_nonconvergence_carries_last_iterate(self, monkeypatch):
        monkeypatch.setattr(cpa, "MAX_ITER", 1)
        with pytest.raises(SolverError) as err:
            cpa._newton(0.01 + 0.34j, 50.0 + 50.0j, RMT_A2, 4096)
        assert err.value.last_p is not None

    def test_lattice_above_d3_needs_a_grid(self):
        # no default grid resolves a d >= 4 lattice; at nu = 0 none is needed
        lattice = ModelParams(d=4, a=0.75, b=0.63, nu=1.0)
        with pytest.raises(ValueError, match="kgrid"):
            solve_p(1.0 + 0.5j, lattice)
        with pytest.raises(ValueError, match="kgrid"):
            dos_curve([0.5, 1.0], 1e-2, lattice)
        assert solve_p(1.0 + 0.5j, lattice, 8).residual <= cpa.NEWTON_TOL
        flat = ModelParams(d=4, a=2.0, b=1.0, nu=0.0)
        assert solve_p(1.0 + 0.5j, flat).p == solve_p(1.0 + 0.5j, RMT_A2).p

    def test_pure_system_short_circuit(self):
        clean = ModelParams(d=1, a=0.75, b=0.0, nu=1.0)
        cp = solve_p(0.5 + 0.5j, clean)
        assert cp.p == 0 and cp.residual == 0.0
        assert cp.g == I_g(KernelParams(cp.z, 0j, 1.0), 1, 4096)


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
        z = 0.4 + 0.9j
        want = I_g(KernelParams(z=z, p=0.0, nu=1.0), 1, 2048)
        assert g_of_z(z, clean, 2048) == pytest.approx(want, rel=1e-15)


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
        omegas = np.array([0.3, 0.7, 1.1])
        curve = dos_curve(omegas, 1e-4, clean, 65536)
        want = 1.0 / (np.pi * np.sqrt(2.0 - omegas**2))
        assert np.abs(curve.rho - want).max() <= 1e-3

    def test_richardson_removes_leading_broadening(self):
        clean = ModelParams(d=1, a=0.75, b=0.0, nu=1.0)
        omegas = np.array([0.9])
        want = 1.0 / (np.pi * np.sqrt(2.0 - omegas**2))
        plain = dos_curve(omegas, 2e-3, clean, 65536)
        rich = dos_curve(omegas, 2e-3, clean, 65536, richardson=True)
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


class TestCarriedResolvent:
    # g is read off the zone means of the converged Newton step; a zone mean
    # of its own is taken only on the doubled grid of a checked curve
    GRID = np.linspace(0.1, 2.6, 12)

    @staticmethod
    def count_means(monkeypatch):
        """Grid sizes of the zone means taken, one entry per mean."""
        sizes = []
        real = bzquad._excess

        def counted(alpha, beta, d, n):
            sizes.append(n)
            return real(alpha, beta, d, n)

        monkeypatch.setattr(bzquad, "_excess", counted)
        return sizes

    def test_unchecked_curve_takes_no_extra_zone_mean(self, monkeypatch):
        sizes = self.count_means(monkeypatch)
        continuation_sweep(self.GRID, 1e-3, LATTICE, 512)
        newton = len(sizes)
        dos_curve(self.GRID, 1e-3, LATTICE, 512)
        assert sizes == [512] * (2 * newton)

    def test_checked_curve_takes_one_doubled_mean_per_point(self, monkeypatch):
        # a grid too coarse for eps, so that the doubling check fires
        sweep = continuation_sweep(self.GRID, 1e-3, LATTICE, 64)
        g_2n = [I_g(KernelParams(cp.z, cp.p, LATTICE.nu), LATTICE.d, 128) for cp in sweep]
        failed = [abs(cp.g - g) > 1e-9 * abs(g) for cp, g in zip(sweep, g_2n)]
        assert 0 < sum(failed) < len(failed)
        sizes = self.count_means(monkeypatch)
        curve = dos_curve(self.GRID, 1e-3, LATTICE, 64, check=True)
        assert sizes.count(128) == self.GRID.size
        assert sizes[-self.GRID.size:] == [128] * self.GRID.size
        assert set(sizes) == {64, 128}
        # the doubled grid's values are reported, one note per failed point
        assert np.array_equal(curve.rho, np.array(g_2n).real / np.pi)
        assert len(curve.notes) == sum(failed)
        assert all(note.startswith("grid-doubling check failed") and
                   note.endswith("at n=64, d=1") for note in curve.notes)

    def test_unconverged_point_takes_g_at_its_stale_p(self, monkeypatch):
        # neither the sweep step nor the reseed converges at omegas[2]
        omegas = self.GRID[:4]
        march, solve = cpa._march, cpa.solve_p

        def failing_march(z_from, p_from, z_to, *args, **kwargs):
            if z_to.imag == omegas[2]:
                raise SolverError("injected")
            return march(z_from, p_from, z_to, *args, **kwargs)

        def failing_solve(z, *args):
            if z.imag == omegas[2]:
                raise SolverError("injected")
            return solve(z, *args)

        monkeypatch.setattr(cpa, "_march", failing_march)
        monkeypatch.setattr(cpa, "solve_p", failing_solve)
        sweep = continuation_sweep(omegas, 1e-3, LATTICE, 512)
        stale = sweep[2]
        assert stale.branch_tag == "unconverged" and stale.p == sweep[1].p
        assert stale.g == I_g(KernelParams(stale.z, stale.p, LATTICE.nu), 1, 512)

    @pytest.mark.parametrize("params,n", [
        (LATTICE, 512), (RMT_A2, 4), (ModelParams(d=2, a=0.75, b=0.63, nu=1.0), 16),
        (ModelParams(d=3, a=0.75, b=0.63, nu=1.0), 8),
    ])
    def test_carried_g_is_the_zone_mean_at_the_solution(self, params, n):
        solved = [solve_p(0.01 + 0.7j, params, n)]
        solved += continuation_sweep(self.GRID, 1e-3, params, n)
        for cp in solved:
            assert cp.g == I_g(KernelParams(cp.z, cp.p, params.nu), params.d, n)


def lsz_rho(omegas, eps, a, b):
    """Flat-band (nu = 0) density from the closed cubic p^3 + b(1 - a)p^2 +
    z^2 p - abz^2 = 0: the root with Re p > 0 and the largest Re g >= 0,
    g = z/(p^2 + z^2), less the pole (1 - a)/z at a < 1."""
    rho = []
    for w in omegas:
        z = complex(eps, w)
        roots = np.roots([1.0, b * (1.0 - a), z * z, -a * b * z * z])
        g = max((z / (p * p + z * z) for p in roots if p.real > 0),
                key=lambda g: g.real)
        assert g.real >= 0
        if a < 1:
            g -= (1.0 - a) / z
        rho.append(g.real / np.pi)
    return np.array(rho)


class TestExtrapolatedSeeds:
    """The sweep seeds each Newton run by extrapolating its last converged
    points; that changes how many steps a point takes, never its branch."""

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75, 1.0, 2.0])
    def test_lsz_limit_on_whole_curves(self, a):
        omegas = np.linspace(3.0 / 600, 3.0, 600)
        curve = dos_curve(omegas, 1e-3, ModelParams(a=a, b=1.0, nu=0.0))
        want = lsz_rho(omegas, 1e-3, a, 1.0)
        assert np.abs(curve.rho - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("params,n,eps,omegas", [
        (LATTICE, 512, 1e-3, np.linspace(0.05, 3.0, 40)),
        (LATTICE, 512, 1e-3, np.linspace(3.0, 0.05, 40)),
        (ModelParams(d=2, a=0.75, b=0.63, nu=1.0), 32, 1e-2, np.linspace(0.1, 3.0, 30)),
        (ModelParams(d=3, a=0.75, b=0.63, nu=1.0), 16, 1e-2, np.linspace(0.1, 3.0, 30)),
        (RMT_A2, None, 1e-3, np.linspace(0.02, 1.5, 50)),
        (ModelParams(a=1.2, b=1.0, nu=0.0), None, 1e-6, np.linspace(0.002, 1.0, 50)),
        # repeated omegas: coincident extrapolation nodes, no extrapolation
        (RMT_A2, None, 1e-3, [1.0, 2.0, 1.0, 2.0]),
        (RMT_A2, None, 1e-3, [3.0, 3.0, 3.0, 3.0]),
        (RMT_A2, None, 1e-3, [1.0, 1.0, 2.0, 2.0]),
    ], ids=["d1", "d1-descending", "d2", "d3", "rmt-a2-gap-edge", "rmt-a1.2-eps1e-6",
            "revisit", "constant", "pairs"])
    def test_sweep_points_match_independent_solves(self, params, n, eps, omegas):
        # Re g = pi * rho; each independent solve continues from the asymptote
        got = np.array([cp.g.real for cp in continuation_sweep(omegas, eps, params, n)])
        want = np.array([g_of_z(complex(eps, w), params, n).real for w in omegas])
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_readme_curve_takes_fewer_zone_means(self, monkeypatch):
        # the d = 1 README run took 2167 zone means when every point started
        # from its predecessor's p
        calls = []
        real = cpa.bzquad.I_cpa_and_derivative

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cpa.bzquad, "I_cpa_and_derivative", counted)
        omegas = np.linspace(3.0 / 600, 3.0, 600)
        curve = dos_curve(omegas, 1e-3, LATTICE, 4096)
        assert curve.residuals.max() <= cpa.NEWTON_TOL
        assert len(calls) <= 1500

    def test_no_extrapolation_through_a_reseed(self, monkeypatch):
        omegas = np.linspace(0.1, 2.0, 12)
        seeds = {}
        real = cpa._march

        def failing(z_from, p_from, z_to, params, n, initial_steps=1, seed=None):
            if initial_steps == 1:  # a sweep step, not solve_p's continuation
                seeds[z_to.imag] = seed
                if z_to.imag == omegas[6]:
                    raise SolverError("injected", last_p=p_from)
            return real(z_from, p_from, z_to, params, n, initial_steps, seed)

        monkeypatch.setattr(cpa, "_march", failing)
        sweep = continuation_sweep(omegas, 1e-3, LATTICE, 512)
        assert any("reseeded" in fl for fl in sweep[6].flags)
        # point 1 starts from point 0's p, point 2 extrapolates linearly
        # through points 0 and 1, later points quadratically
        assert seeds[omegas[1]] is None
        assert seeds[omegas[2]] == pytest.approx(2 * sweep[1].p - sweep[0].p, rel=1e-12)
        assert seeds[omegas[5]] == pytest.approx(
            3 * sweep[4].p - 3 * sweep[3].p + sweep[2].p, rel=1e-12)
        # after the reseed only the reseeded point and its successors count
        assert seeds[omegas[7]] is None
        assert seeds[omegas[8]] == pytest.approx(2 * sweep[7].p - sweep[6].p, rel=1e-12)
        assert seeds[omegas[9]] == pytest.approx(
            3 * sweep[8].p - 3 * sweep[7].p + sweep[6].p, rel=1e-12)


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
        for _ in range(20):
            a = rng.uniform(0.5, 2.5)
            b = rng.uniform(0.5, 2.0)
            z = complex(rng.uniform(0.05, 1.0), rng.uniform(0.0, 2.5))
            rmt = ModelParams(a=a, b=b, nu=0.0)
            near = ModelParams(d=1, a=a, b=b, nu=1e-12)
            assert abs(g_of_z(z, near, 64) - g_of_z(z, rmt)) <= 1e-8

    def test_weak_disorder_matches_clean_resolvent(self):
        clean = ModelParams(d=1, a=0.75, b=0.0, nu=1.0)
        omegas = np.linspace(0.2, 1.0, 9)
        r0 = dos_curve(omegas, 1e-3, clean, 4096).rho
        tiny = ModelParams(d=1, a=0.75, b=1e-12, nu=1.0)
        r1 = dos_curve(omegas, 1e-3, tiny, 4096).rho
        assert np.abs(r1 - r0).max() <= 1e-10
        weak = ModelParams(d=1, a=0.75, b=1e-8, nu=1.0)
        r2 = dos_curve(omegas, 1e-3, weak, 4096).rho
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
