import re
from dataclasses import replace

import numpy as np
import pytest

from bosondos import (
    BranchError,
    ModelParams,
    SolverError,
    continuation_sweep,
    dos_curve,
    find_gap_edge,
    mc_dos,
    rmt_scaled_a1,
    solve_p,
)
from bosondos import bzquad, cpa
from bosondos.bzquad import I_cpa, I_g
from bosondos.cli import compare_curves

RMT_A2 = ModelParams(a=2.0, b=1.0, nu=0.0)
RMT_A1 = ModelParams(a=1.0, b=1.0, nu=0.0)
LATTICE = ModelParams(d=1, a=0.75, b=0.63, nu=1.0)
D3 = ModelParams(d=3, a=0.75, b=0.63, nu=1.0)


def on_grid(params, n):
    """``params`` on the periodic lattice of n sites per dimension, whose
    momenta are the n^d zone grid; unchanged for n = None."""
    return params if n is None else replace(params, extents=(n,) * params.d)


def residual(p, z, params):
    """Mismatch 1/b - a/p + I_cpa(z, p) of the uncleared equation, on the
    default grid; zero exactly on a solution."""
    n = bzquad.points_per_dim(params)
    return 1.0 / params.b - params.a / p + I_cpa(z, p, params.nu, params.d, n)


def sweep_counts(sweep):
    """(skeleton points, lanes, lane fallbacks) from a sweep's summary tag;
    the lanes include the fallbacks."""
    m = re.search(r"(\d+) skeleton points, (\d+) lanes, (\d+) lane fallbacks$",
                  sweep.branch_tag)
    return tuple(int(k) for k in m.groups())


def traced_sweep(monkeypatch, omegas, eps, params, n):
    """``continuation_sweep`` with ``_lane_newton`` and ``_sweep_step``
    spied on.  Returns the sweep, a mask of its converged lanes (points that
    a lane run took and no sequential step reached afterwards), and the
    (z_from, z_next) of every sequential step, in order."""
    laned, steps = [], []
    lane_newton, sweep_step = cpa._lane_newton, cpa._sweep_step

    def spy_lanes(z, p, params, n):
        laned.extend(z.tolist())
        return lane_newton(z, p, params, n)

    def spy_step(z_from, p_from, slope, z_next, params, n):
        steps.append((complex(z_from), complex(z_next)))
        return sweep_step(z_from, p_from, slope, z_next, params, n)

    monkeypatch.setattr(cpa, "_lane_newton", spy_lanes)
    monkeypatch.setattr(cpa, "_sweep_step", spy_step)
    sweep = continuation_sweep(omegas, eps, on_grid(params, n))
    monkeypatch.setattr(cpa, "_lane_newton", lane_newton)
    monkeypatch.setattr(cpa, "_sweep_step", sweep_step)
    z = sweep.z.tolist()
    lanes = np.isin(z, laned) & ~np.isin(z, [z_next for _, z_next in steps])
    return sweep, lanes, steps


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
        p, g, _, its, slope = cpa._newton(z, ref.p * 1.05, LATTICE, 4096)
        assert p == pytest.approx(ref.p, rel=1e-10)
        assert g == pytest.approx(ref.g, rel=1e-10)
        assert slope == pytest.approx(ref.slope, rel=1e-10)
        assert its > 0

    def test_left_half_plane_rejected(self):
        with pytest.raises(ValueError, match="Re z > 0"):
            solve_p(-1.0 + 0.5j, LATTICE)

    def test_zero_seed_rejected(self):
        # q = p + nu = 0 is the kernels' pole; so is every seed off the
        # half-plane Re(p + nu) > 0 that Newton keeps to (nu = 1 here)
        for p0 in (-1.0, -1.0 + 1j, -1.0 - 1e-12 + 0.5j, -1.6 + 0.1j):
            with pytest.raises(ValueError, match=r"Re\(p \+ nu\) > 0"):
                cpa._newton(1.0 + 0.5j, p0, LATTICE, 4096)

    def test_nonconvergence_is_a_solver_error(self, monkeypatch):
        monkeypatch.setattr(cpa, "MAX_ITER", 1)
        with pytest.raises(SolverError, match="no convergence after 1 iterations"):
            cpa._newton(0.01 + 0.34j, 50.0 + 50.0j, RMT_A2, 4096)

    def test_overflowing_mismatch_is_a_solver_error(self):
        # past |z| ~ 1e154 z^2 overflows and the mismatch is nan, which fails
        # the step instead of passing the convergence test with a stale p;
        # the continuation halves its step until it raises, naming the z
        # where z^2 overflows
        with pytest.raises(SolverError, match=r"^non-finite mismatch G=\(nan.*, z=\(.*e\+15[45]j\)$"):
            solve_p(1e-3 + 1e160j, LATTICE)
        with pytest.raises(SolverError, match=r"non-finite mismatch G=\(nan"):
            cpa._newton(1e-3 + 1e160j, 0.5 + 0j, LATTICE, 64)

    def test_singular_zone_means_are_a_solver_error(self, monkeypatch):
        def singular(*args):
            raise ValueError("the zone means are not finite")

        monkeypatch.setattr(cpa.bzquad, "I_cpa_and_derivative", singular)
        with pytest.raises(SolverError, match="zone means are not finite"):
            cpa._newton(0.01 + 0.34j, 0.5 + 0j, LATTICE, 64)

    @pytest.mark.parametrize("z", [1e-3 + np.nan * 1j, complex(np.nan, 1.0),
                                   complex(np.inf, 1.0), complex(1.0, -np.inf)])
    def test_non_finite_z_rejected(self, z):
        with pytest.raises(ValueError, match="finite z"):
            solve_p(z, LATTICE)

    def test_lattice_above_d3_needs_a_grid(self):
        # no default grid resolves a d >= 4 lattice; at nu = 0 none is needed
        lattice = ModelParams(d=4, a=0.75, b=0.63, nu=1.0)
        with pytest.raises(ValueError, match="kgrid"):
            solve_p(1.0 + 0.5j, lattice)
        with pytest.raises(ValueError, match="kgrid"):
            dos_curve([0.5, 1.0], 1e-2, lattice)
        assert solve_p(1.0 + 0.5j, on_grid(lattice, 8)).residual <= cpa.NEWTON_TOL
        flat = ModelParams(d=4, a=2.0, b=1.0, nu=0.0)
        assert solve_p(1.0 + 0.5j, flat).p == solve_p(1.0 + 0.5j, RMT_A2).p

    def test_pure_system_short_circuit(self):
        clean = ModelParams(d=1, a=0.75, b=0.0, nu=1.0)
        cp = solve_p(0.5 + 0.5j, clean)
        assert cp.p == 0 and cp.residual == 0.0
        assert cp.g == I_g(cp.z, 0j, 1.0, 1, 4096)


class TestContinuationSweep:
    def test_gap_versus_bulk_in_flat_band_limit(self):
        omegas = np.array([0.05, 0.15, 1.0, 1.5])
        sweep = continuation_sweep(omegas, 1e-9, RMT_A2)
        rho = (sweep.z / (sweep.z**2 + sweep.p**2)).real / np.pi
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
        assert np.abs(up.p - down.p[::-1]).max() <= 1e-8

    def test_curve_reads_the_sweep_arrays(self):
        # the cpa-d1 flags: one CoherentPotential of arrays in grid order,
        # whose tag counts 26 skeleton points and the rest as lanes
        omegas = np.linspace(3.0 / 600, 3.0, 600)
        sweep = continuation_sweep(omegas, 1e-3, on_grid(LATTICE, 4096))
        for field in (sweep.p, sweep.z, sweep.residual, sweep.iterations, sweep.g,
                      sweep.slope):
            assert field.shape == omegas.shape
        assert sweep.z.tobytes() == np.array([complex(1e-3, w) for w in omegas]).tobytes()
        skeleton, lanes, fallbacks = sweep_counts(sweep)
        assert skeleton == 26 and skeleton + lanes == omegas.size
        assert 0 <= fallbacks < lanes
        curve = dos_curve(omegas, 1e-3, on_grid(LATTICE, 4096))
        assert curve.p.tobytes() == sweep.p.tobytes()
        assert curve.residuals.tobytes() == sweep.residual.tobytes()
        assert curve.rho.tobytes() == (sweep.g.real / np.pi).tobytes()
        # a one-point sweep is solve_p's point
        one, cp = continuation_sweep([0.7], 1e-3, LATTICE), solve_p(1e-3 + 0.7j, LATTICE)
        assert (one.p[0], one.g[0], one.slope[0]) == (cp.p, cp.g, cp.slope)
        assert sweep_counts(one) == (1, 0, 0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pure_system_takes_the_one_solve_path(self, d):
        # b = 0: every Newton run, lanes included, ends where it starts, at
        # p = 0, with the clean resolvent's zone mean as g
        clean = ModelParams(d=d, a=0.75, b=0.0, nu=1.0)
        omegas = np.linspace(0.01, 3.0, 300)
        sweep = continuation_sweep(omegas, 1e-3, clean)
        skeleton, lanes, fallbacks = sweep_counts(sweep)
        assert lanes > skeleton and fallbacks == 0
        assert not sweep.p.any() and not sweep.residual.any()
        n = bzquad.points_per_dim(clean)
        want = np.array([I_g(z, 0j, 1.0, d, n) for z in sweep.z.tolist()])
        assert np.abs(sweep.g - want).max() <= 1e-14 * np.abs(want).max()

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            continuation_sweep(np.array([]), 1e-3, LATTICE)
        with pytest.raises(ValueError, match="eps"):
            continuation_sweep(np.array([0.5]), -1.0, LATTICE)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="omega_grid must be finite"):
                continuation_sweep([0.5, bad, 1.0], 1e-3, LATTICE)
            with pytest.raises(ValueError, match="eps must be finite"):
                continuation_sweep([0.5, 1.0], bad, LATTICE)


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

    def test_point_mass_kept_out_of_rho(self):
        # the pole (1 - a)/z of g is booked as dirac_mass_at_zero only; left
        # in rho as an eps-wide Lorentzian it would count that mass twice
        params = ModelParams(a=0.75, b=1.0, nu=0.0)
        omegas = np.linspace(5e-3, 3.0, 600)
        curve = dos_curve(omegas, 1e-3, params)
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
        curve = dos_curve(omegas, 1e-4, on_grid(clean, 65536))
        want = 1.0 / (np.pi * np.sqrt(2.0 - omegas**2))
        assert np.abs(curve.rho - want).max() <= 1e-3

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

    @pytest.mark.parametrize("params", [LATTICE, RMT_A2], ids=["lattice", "flat"])
    def test_non_finite_inputs_name_the_input(self, params):
        # the error names the input, not a grid point or Re z in the solver
        with pytest.raises(ValueError, match="omega_grid must be finite"):
            dos_curve([0.5, np.nan, 1.0], 1e-3, params)
        with pytest.raises(ValueError, match="eps must be finite"):
            dos_curve([0.5, 1.0], np.nan, params)

    def test_residual_guarantee_along_sweep(self):
        curve = dos_curve(np.linspace(0.1, 2.0, 30), 1e-3, LATTICE)
        assert curve.residuals.max() <= cpa.NEWTON_TOL


class TestCarriedResolvent:
    # g is read off the zone means of the converged Newton step; a zone mean
    # of its own is taken only on the doubled grid of a checked curve
    GRID = np.linspace(0.1, 2.6, 12)

    @staticmethod
    def count_means(monkeypatch):
        """Grid sizes of the zone means taken, one entry per mean (an array
        call for all lanes counts once)."""
        sizes = []
        real = bzquad._excess

        def counted(t, d, n):
            sizes.append(n)
            return real(t, d, n)

        monkeypatch.setattr(bzquad, "_excess", counted)
        return sizes

    def test_unchecked_curve_takes_no_extra_zone_mean(self, monkeypatch):
        sizes = self.count_means(monkeypatch)
        continuation_sweep(self.GRID, 1e-3, on_grid(LATTICE, 512))
        newton = len(sizes)
        dos_curve(self.GRID, 1e-3, on_grid(LATTICE, 512))
        assert sizes == [512] * (2 * newton)

    def test_checked_curve_takes_one_doubled_mean_per_point(self, monkeypatch):
        # a grid too coarse for eps, so that the doubling check fires
        sweep = continuation_sweep(self.GRID, 1e-3, on_grid(LATTICE, 64))
        g_2n = [I_g(z, p, LATTICE.nu, LATTICE.d, 128)
                for z, p in zip(sweep.z.tolist(), sweep.p.tolist())]
        failed = [abs(g_n - g) > 1e-9 * abs(g) for g_n, g in zip(sweep.g.tolist(), g_2n)]
        assert 0 < sum(failed) < len(failed)
        sizes = self.count_means(monkeypatch)
        curve = dos_curve(self.GRID, 1e-3, on_grid(LATTICE, 64), check=True)
        assert sizes.count(128) == self.GRID.size
        assert sizes[-self.GRID.size:] == [128] * self.GRID.size
        assert set(sizes) == {64, 128}
        # the doubled grid's values are reported, one note per failed point
        assert np.array_equal(curve.rho, np.array(g_2n).real / np.pi)
        assert len(curve.notes) == sum(failed)
        assert all(note.startswith("grid-doubling check failed") and
                   note.endswith("at n=64, d=1") for note in curve.notes)

    def test_unsolvable_point_raises_naming_its_omega(self, fail_at):
        # the sweep step to omegas[2] does not converge
        omegas = self.GRID[:4]
        fail_at(omegas[2])
        with pytest.raises(SolverError, match=f"^omega={omegas[2]:g}: injected$"):
            continuation_sweep(omegas, 1e-3, on_grid(LATTICE, 512))
        with pytest.raises(SolverError, match=f"^omega={omegas[2]:g}: injected$"):
            dos_curve(omegas, 1e-3, on_grid(LATTICE, 512))

    def test_failed_first_point_names_its_omega(self, fail_at):
        fail_at(self.GRID[0])
        with pytest.raises(SolverError, match=f"^omega={self.GRID[0]:g}: injected$"):
            continuation_sweep(self.GRID, 1e-3, on_grid(LATTICE, 512))

    @pytest.mark.parametrize("params,n", [
        (LATTICE, 512), (RMT_A2, 4), (ModelParams(d=2, a=0.75, b=0.63, nu=1.0), 16),
        (ModelParams(d=3, a=0.75, b=0.63, nu=1.0), 8),
    ])
    def test_carried_g_is_the_zone_mean_at_the_solution(self, params, n):
        cp = solve_p(0.01 + 0.7j, on_grid(params, n))
        assert cp.g == I_g(cp.z, cp.p, params.nu, params.d, n)
        sweep = continuation_sweep(self.GRID, 1e-3, on_grid(params, n))
        for z, p, g in zip(sweep.z.tolist(), sweep.p.tolist(), sweep.g.tolist()):
            assert g == I_g(z, p, params.nu, params.d, n)


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
    """The sweep seeds each Newton run by extrapolating along the tangent
    dp/dz of converged points; that changes how many steps a point takes,
    never its branch."""

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
        (D3, 16, 1e-2, np.linspace(0.1, 3.0, 30)),
        (RMT_A2, None, 1e-3, np.linspace(0.02, 1.5, 50)),
        (ModelParams(a=1.2, b=1.0, nu=0.0), None, 1e-6, np.linspace(0.002, 1.0, 50)),
        # repeated omegas: coincident extrapolation nodes, no extrapolation
        (RMT_A2, None, 1e-3, [1.0, 2.0, 1.0, 2.0]),
        (RMT_A2, None, 1e-3, [3.0, 3.0, 3.0, 3.0]),
        (RMT_A2, None, 1e-3, [1.0, 1.0, 2.0, 2.0]),
        # fine grids: most points are lanes between skeleton points
        (LATTICE, 512, 1e-3, np.linspace(0.005, 3.0, 300)),
        (LATTICE, 512, 1e-3, np.linspace(3.0, 0.005, 300)),
        (ModelParams(d=2, a=0.75, b=0.63, nu=1.0), 32, 1e-2, np.linspace(0.01, 3.0, 200)),
        (ModelParams(d=2, a=0.75, b=0.63, nu=1.0), 32, 1e-2, np.linspace(3.0, 0.01, 200)),
        (D3, 16, 1e-2, np.linspace(0.01, 3.0, 200)),
        (D3, 16, 1e-2, np.linspace(3.0, 0.01, 200)),
        (RMT_A2, None, 1e-3, np.linspace(0.005, 3.0, 300)),
        (ModelParams(a=0.75, b=1.0, nu=0.0), None, 1e-3, np.linspace(3.0, 0.005, 300)),
        # the cpa-d3 benchmark grid: default 64^3 zone grid and eps
        (D3, None, 1e-3, np.linspace(0.05, 3.0, 60)),
    ], ids=["d1", "d1-descending", "d2", "d3", "rmt-a2-gap-edge", "rmt-a1.2-eps1e-6",
            "revisit", "constant", "pairs", "d1-fine", "d1-fine-descending", "d2-fine",
            "d2-fine-descending", "d3-fine", "d3-fine-descending", "rmt-a2-fine",
            "rmt-a0.75-fine-descending", "cpa-d3"])
    def test_sweep_points_match_independent_solves(self, params, n, eps, omegas):
        # Re g = pi * rho; each independent solve continues from the asymptote
        params = on_grid(params, n)
        sweep = continuation_sweep(omegas, eps, params)
        want = np.array([solve_p(complex(eps, w), params).g.real for w in omegas])
        assert np.abs(sweep.g.real - want).max() <= 1e-10 * np.abs(want).max()
        # on the fine grids and the cpa-d3 grid some points are lanes, not
        # sequential steps
        _, lanes, fallbacks = sweep_counts(sweep)
        assert len(omegas) < 60 or lanes > fallbacks

    @staticmethod
    def counted_zone_means(monkeypatch):
        """The list that every later zone-mean call is appended to; an array
        call for all lanes counts once."""
        calls = []
        real = cpa.bzquad.I_cpa_and_derivative

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cpa.bzquad, "I_cpa_and_derivative", counted)
        return calls

    @classmethod
    def zone_means(cls, monkeypatch, omegas, params):
        """Zone-mean calls of one curve at the default eps."""
        calls = cls.counted_zone_means(monkeypatch)
        curve = dos_curve(omegas, 1e-3, params)
        assert curve.residuals.max() <= cpa.NEWTON_TOL
        return len(calls)

    def test_readme_curve_takes_fewer_zone_means(self, monkeypatch):
        # the d = 1 README run took 2167 zone means when every point started
        # from its predecessor's p, 1421 with extrapolated seeds before the
        # points off the sweep skeleton became lanes, 286 with a skeleton
        # spacing of 0.04, 169 with the 0.12 spacing before the tangent
        # predictor and 163 while the march to its first point started in
        # eight steps
        omegas = np.linspace(3.0 / 600, 3.0, 600)
        assert self.zone_means(monkeypatch, omegas, on_grid(LATTICE, 4096)) <= 142

    def test_cpa_d3_curve_takes_fewer_zone_means(self, monkeypatch):
        # the cpa-d3 benchmark flags took 233 zone means with a skeleton
        # spacing of 0.04, which left its 0.05 steps without lanes, 124 at
        # 0.12 before the tangent predictor and 119 while the march to its
        # first point started in eight steps
        omegas = np.linspace(0.05, 3.0, 60)
        assert self.zone_means(monkeypatch, omegas, D3) <= 98

    @pytest.mark.parametrize("z,params", [
        (complex(1e-3, 0.05), D3),
        (complex(1e-3, 3.0 / 600), on_grid(LATTICE, 4096)),
    ], ids=["cpa-d3", "readme-d1"])
    def test_first_point_is_one_adaptive_march(self, monkeypatch, z, params):
        # the march from the asymptote took 29 zone means at both points
        # when it started in eight fixed steps
        calls = self.counted_zone_means(monkeypatch)
        assert solve_p(z, params).residual <= cpa.NEWTON_TOL
        assert len(calls) <= 8

    def test_failed_lane_falls_back_to_the_sequential_step(self, monkeypatch):
        omegas = np.linspace(0.005, 3.0, 300)
        sweep, is_lane, steps = traced_sweep(monkeypatch, omegas, 1e-3, LATTICE, 512)
        skeleton, lanes, fallbacks = sweep_counts(sweep)
        i = next(i for i in range(1, omegas.size - 1) if all(is_lane[i - 1 : i + 2]))
        target = omegas[i]
        real = cpa.bzquad.I_cpa_and_derivative

        def one_lane_nan(z, p, nu, d, n):
            out = real(z, p, nu, d, n)
            if isinstance(z, np.ndarray):
                for x in out:
                    x[z.imag == target] = np.nan
            return out

        monkeypatch.setattr(cpa.bzquad, "I_cpa_and_derivative", one_lane_nan)
        sweep, now_lane, now_steps = traced_sweep(monkeypatch, omegas, 1e-3, LATTICE, 512)
        want = is_lane.copy()
        want[i] = False
        assert np.array_equal(now_lane, want)
        assert sweep_counts(sweep) == (skeleton, lanes, fallbacks + 1)
        # the one step more is the fallback's, from its left skeleton neighbour
        fallback = complex(sweep.z[i])
        left = max((z for z, _ in steps if z.imag < fallback.imag), key=lambda z: z.imag)
        assert len(now_steps) == len(steps) + 1
        assert set(now_steps) == set(steps) | {(left, fallback)}
        assert sweep.residual[i] <= cpa.NEWTON_TOL
        monkeypatch.undo()
        ref = solve_p(fallback, on_grid(LATTICE, 512))
        assert sweep.p[i] == pytest.approx(ref.p, rel=1e-10)
        assert sweep.g[i] == pytest.approx(ref.g, rel=1e-10)

    @pytest.mark.parametrize("params,n", [
        (LATTICE, 4096), (ModelParams(d=2, a=0.75, b=0.63, nu=1.0), 256), (D3, 64),
        (ModelParams(a=0.75, b=1.0, nu=0.0), 4096),
    ], ids=["d1", "d2", "d3", "nu0"])
    def test_slope_is_the_derivative_of_independent_solves(self, params, n):
        params = on_grid(params, n)
        h = 1e-5
        for w in (0.3, 1.1, 2.2):
            z = complex(1e-3, w)
            centered = (solve_p(z + 1j * h, params).p
                        - solve_p(z - 1j * h, params).p) / (2j * h)
            slope = solve_p(z, params).slope
            assert abs(slope - centered) <= 1e-6 * abs(centered)

    def test_lanes_carry_the_slope_of_their_converged_step(self, monkeypatch):
        omegas = np.linspace(0.005, 3.0, 300)
        sweep, is_lane, _ = traced_sweep(monkeypatch, omegas, 1e-3, LATTICE, 512)
        assert is_lane.sum() > omegas.size // 2
        for p, z, lane_slope in zip(sweep.p[is_lane].tolist(), sweep.z[is_lane].tolist(),
                                    sweep.slope[is_lane].tolist()):
            # the scalar terms at the lane's own root; numpy's and Python's
            # complex division round differently
            slope = cpa._G_terms(p, z, LATTICE, 512)[4]
            assert abs(lane_slope - slope) <= 1e-12 * abs(slope)

    def test_skeleton_steps_start_from_the_tangent(self, monkeypatch):
        # steps wider than the skeleton spacing: every point is a skeleton
        # point
        omegas = np.linspace(0.1, 2.0, 12)
        starts = []
        newton = cpa._newton

        def spy(z, p0, params, n):
            starts.append((z, p0))
            return newton(z, p0, params, n)

        monkeypatch.setattr(cpa, "_newton", spy)
        sweep, is_lane, steps = traced_sweep(monkeypatch, omegas, 1e-3, LATTICE, 512)
        assert sweep_counts(sweep) == (omegas.size, 0, 0) and not is_lane.any()
        z, p, slope = sweep.z.tolist(), sweep.p.tolist(), sweep.slope.tolist()
        assert steps == list(zip(z, z[1:]))
        # each step's first Newton run is at its own z, from the tangent
        # predictor of the point before
        for i in range(1, omegas.size):
            first = next(p0 for zn, p0 in starts if zn == z[i])
            assert first == p[i - 1] + slope[i - 1] * (z[i] - z[i - 1])

    def test_failed_skeleton_step_raises_naming_its_omega(self, monkeypatch):
        # a sweep point has one solve path, the step from the point before:
        # where it fails, the sweep raises, naming that point's omega
        omegas = np.linspace(0.1, 2.0, 12)
        march = cpa._march

        def failing(z_from, p_from, slope, z_to, params, n):
            # sweep steps start off the real axis; solve_p's march starts on
            # it, at z_start
            if z_from.imag != 0 and z_to.imag == omegas[6]:
                raise SolverError("injected")
            return march(z_from, p_from, slope, z_to, params, n)

        monkeypatch.setattr(cpa, "_march", failing)
        with pytest.raises(SolverError, match=f"^omega={omegas[6]:g}: injected$"):
            continuation_sweep(omegas, 1e-3, on_grid(LATTICE, 512))


def lsz_rho_at_zero_eps(omegas, a, b):
    """Exact eps = 0 flat-band density: at z = i*omega the closed cubic is
    p^3 + b(1 - a)p^2 - omega^2 p + ab omega^2 = 0 with g = i*omega/(p^2 -
    omega^2); rho = Re g / pi at the complex root with Re p > 0 and Re g > 0,
    and 0 where no root is complex (a real p gives a purely imaginary g)."""
    rho = np.zeros(len(omegas))
    for i, w in enumerate(omegas):
        for p in np.roots([1.0, b * (1.0 - a), -w * w, a * b * w * w]):
            g = 1j * w / (p * p - w * w)
            if abs(p.imag) > 1e-12 * abs(p) and p.real > 0 and g.real > 0:
                rho[i] = g.real / np.pi
    return rho


class TestSmallEpsLimit:
    """One sweep at a small eps is the route to the eps -> 0+ density."""

    @pytest.mark.parametrize("b", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 1.5, 2.0])
    def test_flat_band_curve_matches_exact_cubic(self, a, b):
        # about 3e-8 at every a and b; the default eps misses by up to 3.8e-2
        omegas = np.linspace(4.0 * b / 600, 4.0 * b, 600)
        curve = dos_curve(omegas, 1e-9 * b, ModelParams(a=a, b=b, nu=0.0))
        want = lsz_rho_at_zero_eps(omegas, a, b)
        assert np.abs(curve.rho - want).max() <= 1e-7 * want.max()
        assert curve.notes == ()

    def test_newton_stays_in_the_right_half_plane(self, monkeypatch):
        # the first point's continuation out of the asymptote passes close
        # to Re p = 0 here, where a step with Re p <= 0 can lower |G|
        seen = []
        real = cpa._G_terms

        def spy(p, z, params, n):
            if not isinstance(p, np.ndarray):
                seen.append(p)
            return real(p, z, params, n)

        monkeypatch.setattr(cpa, "_G_terms", spy)
        omegas = np.linspace(4.0 / 600, 4.0, 600)
        dos_curve(omegas, 1e-9, ModelParams(a=0.25, b=1.0, nu=0.0))
        assert seen and min(p.real for p in seen) > 0


class TestMomentSumRules:
    """The density's two-sided moments m_2k, point mass included, are the
    large-z coefficients of z*g = 1 - m2/z^2 + m4/z^4 - ...: a check of the
    mean-field route that needs no binning and no omega grid."""

    @pytest.mark.parametrize("params", [
        *(ModelParams(d=d, a=0.75, b=0.63, nu=1.0) for d in (1, 2, 3)),
        ModelParams(d=3, a=2.0, b=0.3, nu=0.7),
        ModelParams(d=2, a=0.2, b=3.0, nu=0.1),
        *(ModelParams(a=a, b=b, nu=0.0) for a, b in ((0.5, 1.0), (0.75, 1.0),
                                                     (2.0, 1.0), (1.0, 2.0))),
    ])
    def test_second_and_fourth_moments(self, params):
        # (1 - z*g)*z^2 = m2 - m4/z^2 + m6/z^4 - ..., fitted as a cubic in
        # 1/z^2 at real z; m2 holds within 5.1e-11, m4 within 1.3e-7
        a, b, nu = params.a, params.b, params.nu
        scale = max(b, nu)
        z = scale * np.linspace(40.0, 120.0, 9)
        g = np.array([solve_p(zi, params).g for zi in z])
        y = ((1.0 - z * g) * z * z).real / scale**2
        c = np.polynomial.polynomial.polyfit((scale / z) ** 2, y, 3)
        assert c[0] * scale**2 == pytest.approx((nu + a * b) ** 2, rel=1e-9)
        if nu == 0:
            assert -c[1] * scale**4 == pytest.approx(a**3 * (a + 2) * b**4, rel=1e-6)


def box_draws(count, seed):
    """Seeded curves over the parameter box the CLI accepts: d cycling 1, 1,
    1, 2, 3; a log-uniform in [0.1, 5] and b in [0.01, 10]; nu = 0 on every
    third curve, else log-uniform in [0.05, 10]; three grid points to check
    against independent solves."""
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(count):
        d = (1, 1, 1, 2, 3)[i % 5]
        a, b = np.exp(rng.uniform(np.log([0.1, 0.01]), np.log([5.0, 10.0])))
        nu = 0.0 if i % 3 == 0 else float(np.exp(rng.uniform(np.log(0.05), np.log(10.0))))
        draws.append((d, float(a), float(b), nu, rng.integers(0, 1000, size=3)))
    return draws


def box_curve(d, a, b, nu):
    """The model, omega grid and eps of a box draw's curve: from
    omega_max / size to past the support, 3000 / 600 / 300 points at
    d = 1 / 2 / 3."""
    params = ModelParams(d=d, a=a, b=b, nu=nu)
    omega_max = 1.2 * (np.sqrt(2.0) * nu + b * (1.0 + np.sqrt(a)) ** 2)
    size = {1: 3000, 2: 600, 3: 300}[d]
    return params, np.linspace(omega_max / size, omega_max, size), cpa.default_eps(params)


class TestParameterBox:
    """Every curve over the box is solved throughout."""

    @pytest.mark.parametrize("d,a,b,nu,checks", [
        pytest.param(*draw, id=f"{i}-d{draw[0]}")
        for i, draw in enumerate(box_draws(20, 2026))
    ])
    def test_curve_is_solved_throughout(self, d, a, b, nu, checks):
        params, omegas, eps = box_curve(d, a, b, nu)
        size = omegas.size
        curve = dos_curve(omegas, eps, params)
        assert curve.residuals.max() <= cpa.NEWTON_TOL
        assert curve.rho.min() >= -1e-6 / max(b, nu)
        # the README's two-sided normalization: the grid covers the support
        assert abs(curve.normalization - 1.0) <= 1e-2
        # dos_curve ran the same sweep: a rerun, bit for bit
        sweep = continuation_sweep(omegas, eps, params)
        assert sweep.p.tobytes() == curve.p.tobytes()
        assert sweep.residual.tobytes() == curve.residuals.tobytes()
        for i in checks * size // 1000:
            want = solve_p(complex(eps, omegas[i]), params).g
            assert abs(sweep.g[i] - want) <= 1e-10 * np.abs(sweep.g).max()


class TestScaledCriticalRatio:
    def test_closed_form_matches_the_cubic_roots(self):
        # Cardano's closed form against numpy's companion-matrix roots of
        # gt^3 - gt + 1/x = 0, from deep in the x^(-1/3) divergence up to
        # the edge
        x_edge = 1.5 * np.sqrt(3.0)
        x = np.logspace(-6, np.log10(x_edge), 400)[:-1]
        want = [np.roots([1.0, 0.0, -1.0, 1.0 / xi]).imag.max() / np.pi for xi in x]
        assert np.abs(rmt_scaled_a1(x) - want).max() <= 1e-9

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
            assert abs(solve_p(z, on_grid(near, 64)).g - solve_p(z, rmt).g) <= 1e-8

    def test_weak_disorder_matches_clean_resolvent(self):
        clean = ModelParams(d=1, a=0.75, b=0.0, nu=1.0)
        omegas = np.linspace(0.2, 1.0, 9)
        r0 = dos_curve(omegas, 1e-3, on_grid(clean, 4096)).rho
        tiny = ModelParams(d=1, a=0.75, b=1e-12, nu=1.0)
        r1 = dos_curve(omegas, 1e-3, on_grid(tiny, 4096)).rho
        assert np.abs(r1 - r0).max() <= 1e-10
        weak = ModelParams(d=1, a=0.75, b=1e-8, nu=1.0)
        r2 = dos_curve(omegas, 1e-3, on_grid(weak, 4096)).rho
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

    @pytest.mark.parametrize("b", [1e-3, 1.0, 1e6])
    @pytest.mark.parametrize("a", [1.1, 1.2, 1.25, 1.5, 2.0, 3.0])
    def test_gap_edge_is_the_discriminant_root(self, a, b):
        # the gap edge is where the real cubic's discriminant vanishes: with
        # B = b(1 - a) and w = omega^2, the smaller positive root of
        # 4w^2 + (B^2 - 18abB - 27a^2b^2)w - 4abB^3 = 0
        B = b * (1.0 - a)
        w = np.roots([4.0, B * B - 18.0 * a * b * B - 27.0 * a * a * b * b,
                      -4.0 * a * b * B**3])
        edge = np.sqrt(w.real[w.real > 0].min())
        assert find_gap_edge(ModelParams(a=a, b=b, nu=0.0)) == pytest.approx(edge, rel=1e-12)

    def test_no_gap_below_critical_ratio(self):
        assert find_gap_edge(ModelParams(a=0.75, b=1.0, nu=0.0)) == 0.0

    @pytest.mark.parametrize("b", [1e-3, 1.0, 1e6])
    @pytest.mark.parametrize("a", [1.1, 1.5, 3.0])
    def test_density_is_pure_broadening_below_the_edge(self, a, b):
        # an independent check of the edge on the solver's own density:
        # just below it rho is the eps-broadening alone, linear in eps;
        # just above it rho is finite and independent of eps
        params = ModelParams(a=a, b=b, nu=0.0)
        edge = find_gap_edge(params)

        def rho(omega):  # in units of 1/b, at eps = 1e-9*b and 1e-12*b
            return np.array([b * solve_p(complex(f * b, omega), params).g.real / np.pi
                             for f in (1e-9, 1e-12)])

        below, above = rho(edge * (1 - 1e-6)), rho(edge * (1 + 1e-6))
        assert below[0] >= 500.0 * below[1] > 0
        assert above.min() >= 1e-4
        assert abs(above[0] - above[1]) <= 2e-3 * above[1]

    def test_lattice_raises_naming_nu(self):
        with pytest.raises(ValueError, match="nu=0.5"):
            find_gap_edge(ModelParams(d=1, a=2.0, b=1.0, nu=0.5))


class TestScaleFreeThresholds:
    """omega scales as max(b, nu) and rho as 1/max(b, nu), so the gap edge
    scales with b and the density thresholds are read in the unit of rho:
    at scale 1 they are the absolute 1e-6 they used to be."""

    def test_gap_edge_scales_with_b(self):
        # computed at b = 1 and multiplied by b: exact, with no overflow
        for a in (1.1, 2.0, 3.0):
            unit = find_gap_edge(ModelParams(a=a, b=1.0, nu=0.0))
            for s in (1e-300, 1e-3, 1e3, 1e6, 1e300):
                assert find_gap_edge(ModelParams(a=a, b=s, nu=0.0)) == s * unit

    @pytest.mark.parametrize("b", [1.0, 1e6])
    def test_negative_density_guard_scales_with_b(self, b, monkeypatch):
        params = ModelParams(a=2.0, b=b, nu=0.0)
        omegas = b * np.linspace(0.5, 1.5, 11)
        real = cpa.continuation_sweep

        def one_negated(*args):
            sweep = real(*args)
            sweep.g[5] = -sweep.g[5]
            return sweep

        assert dos_curve(omegas, 1e-3 * b, params).rho.min() > 0
        monkeypatch.setattr(cpa, "continuation_sweep", one_negated)
        with pytest.raises(BranchError, match="negative density"):
            dos_curve(omegas, 1e-3 * b, params)

    def test_branch_test_is_scale_free(self):
        # lambda * rho(lambda * omega; lambda * b, lambda * nu, lambda * eps) is
        # one curve.  On box draw (1, 37) at eps = 1e-5 a jump bound with an
        # absolute floor of 1 let the point at omega = 0.0956 land on a gap
        # root (rho = 3.3e-4 between neighbours of 1.85) at lambda = 0.01
        # and 1, though not at 100
        d, a, b, nu, _ = box_draws(100, 1)[37]
        params, omegas, _ = box_curve(d, a, b, nu)
        curves = {lam: lam * dos_curve(lam * omegas, lam * 1e-5,
                                       replace(params, b=lam * b, nu=lam * nu)).rho
                  for lam in (0.01, 1.0, 100.0)}
        for lam in (0.01, 100.0):
            assert np.abs(curves[lam] - curves[1.0]).max() <= 1e-10 * curves[1.0].max()


class TestOneLattice:
    """``ModelParams.extents`` is the lattice of both routes: the mean field
    averages over the momenta of the periodic lattice the oracle samples."""

    CHAIN = ModelParams(d=1, extents=(16,), N=4, M=6, b=0.15, nu=1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_curve_matches_the_histogram_of_its_own_lattice(self, seed):
        # L1 0.032-0.038 on the chain's own 16 momenta; the default
        # 4096-point grid, standing in for the infinite chain, stays near
        # 0.26, the 16-site chain's finite-size floor that no N removes
        hist = mc_dos(self.CHAIN, n_samples=100, bins=60, seed=seed)
        omegas = np.linspace(2.2 / 600, 2.2, 600)
        assert hist.bin_edges[-1] < omegas[-1]
        eps = cpa.default_eps(self.CHAIN)
        l1 = {}
        for name, params in (("own", self.CHAIN), ("default", replace(self.CHAIN, extents=None))):
            rho = dos_curve(omegas, eps, params).rho
            l1[name], _ = compare_curves(omegas, rho, hist.bin_centers, hist.widths,
                                         hist.densities)
        assert l1["own"] <= 0.06 < 0.2 <= l1["default"]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_smallest_lattice_solves(self, d):
        params = ModelParams(d=d, extents=(3,) * d, a=0.75, b=0.63, nu=1.0)
        curve = dos_curve(np.linspace(3.0 / 600, 3.0, 600), 1e-3, params)
        assert curve.residuals.max() <= cpa.NEWTON_TOL
        assert abs(curve.normalization - 1.0) <= 1e-2

    def test_unequal_extents_are_rejected(self):
        # the zone mean runs over an L^d grid; a lattice of extents (4, 3)
        # is still the oracle's to sample
        rect = ModelParams(d=2, extents=(4, 3), N=2, M=3, b=0.63, nu=1.0)
        with pytest.raises(ValueError, match=r"equal extents, got \(4, 3\)"):
            solve_p(1.0 + 0.5j, rect)
        with pytest.raises(ValueError, match="equal extents"):
            dos_curve([0.5, 1.0], 1e-3, rect)
        assert mc_dos(rect, n_samples=1, bins=4, seed=0).total_eigenvalues == 2 * 2 * 12


def ks_to_curve(hist, omegas, rho):
    """Kolmogorov-Smirnov distance from the histogram to the two-sided
    density rho on the ascending omegas: the largest |2 F_cpa - F_mc| over
    the bin edges, with F_mc the share of eigenvalues below each edge and
    F_cpa the trapezoid integral of rho from 0, rho held at its first value
    below omegas[0]."""
    x = np.concatenate(([0.0], omegas))
    y = np.concatenate((rho[:1], rho))
    F = np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))))
    F_mc = np.concatenate(([0], np.cumsum(hist.counts))) / hist.total_eigenvalues
    return float(np.abs(2.0 * np.interp(hist.bin_edges, x, F) - F_mc).max())


class TestLargeNExactness:
    """The paper's claim that the CPA becomes exact at large N, where both
    routes compute one lattice: the distance from ``mc_dos`` to the mean
    field on the lattice's own momenta falls like a power of 1/N, with no
    finite-lattice floor, while the default grid keeps one."""

    # Samples per N = 2, 4, 8, sized from seeds 0-7 so that the range of
    # the own-lattice KS over them stays below a quarter of its mean (range /
    # mean at these sizes, and mean KS):
    #   8-site chain: 0.14, 0.21, 0.22; KS 0.031, 0.014, 0.0059 (default
    #   grid at N = 8: 0.0097-0.0107);
    #   6 x 6: 0.12, 0.13, 0.20; KS 0.036, 0.017, 0.0067 (default grid at
    #   N = 8: 0.0082-0.0096).
    # At N = 8 the 6 x 6 lattice read range / mean 0.36 at 100 and 150
    # samples and 0.29 at 300.
    @pytest.mark.parametrize("extents, samples", [
        ((8,), (1600, 800, 800)),
        ((6, 6), (200, 100, 400)),
    ], ids=["chain8", "square6x6"])
    def test_distance_to_the_own_lattice_falls_like_a_power_of_N(self, extents, samples):
        d = len(extents)
        own = ModelParams(d=d, extents=extents, a=0.75, b=0.63, nu=1.0)
        omegas = np.linspace(4.0 / 3000, 4.0, 3000)
        rho = {name: dos_curve(omegas, 1e-4 * own.nu, params).rho
               for name, params in (("own", own), ("default", replace(own, extents=None)))}
        Ns = (2, 4, 8)
        ks = {"own": [], "default": []}
        for N, n_samples in zip(Ns, samples):
            params = ModelParams(d=d, extents=extents, N=N, M=3 * N // 2, b=0.63, nu=1.0)
            hist = mc_dos(params, n_samples=n_samples, bins=60, seed=0)
            assert hist.bin_edges[-1] < omegas[-1]
            for name, curve in rho.items():
                ks[name].append(ks_to_curve(hist, omegas, curve))
        slope = np.polyfit(np.log(Ns), np.log(ks["own"]), 1)[0]
        assert slope <= -0.8, (slope, ks)
        assert ks["own"][-1] < ks["default"][-1], ks
