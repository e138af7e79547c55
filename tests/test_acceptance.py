"""Acceptance suite: one test per release criterion, each printing a
``[criterion N] PASS/FAIL`` line with its measured figures and runtime.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from dataclasses import replace

import numpy as np

from bosondos import (
    ModelParams,
    dos_curve,
    find_gap_edge,
    mc_dos,
    rmt_scaled_a1,
    solve_p,
)
from bosondos.bzquad import I_g
from bosondos.cli import compare_curves, emit_csv
from bosondos.ensemble import draw_sample, spectrum_X


def report(num, ok, detail, elapsed, budget):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail} "
          f"({elapsed:.1f}s / budget {budget:.0f}s)", flush=True)
    assert ok, f"criterion {num}: {detail}"
    assert elapsed <= budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def lowest_local_max(x, y):
    idx = [i for i in range(1, len(y) - 1) if y[i] > y[i - 1] and y[i] >= y[i + 1]]
    return x[idx[0]] if idx else x[int(np.argmax(y))]


def test_criterion_1_pure_chain_density():
    """Weak-disorder d=1 density matches the closed-form clean chain."""
    t0 = time.perf_counter()
    params = ModelParams(d=1, a=0.75, b=1e-8, nu=1.0)
    omegas = np.linspace(0.1, 1.3, 25)
    exact = 1.0 / (np.pi * np.sqrt(2.0 - omegas**2))

    # The uniform periodic rule cannot resolve eps = 1e-4 broadening with
    # 8192 points (pole distance ~1.5e-4 off the axis vs grid spacing
    # ~7.7e-4); the grid-doubling check flags that configuration, and the
    # stated tolerance is met on a grid that resolves the broadening.
    coarse = dos_curve(omegas[:3], 1e-4, replace(params, extents=(8192,)), check=True)
    coarse_flagged = any("doubling" in note for note in coarse.notes)
    coarse_err = float(np.abs(coarse.rho - exact[:3]).max())

    curve = dos_curve(omegas, 1e-4, replace(params, extents=(65536,)))
    err = float(np.abs(curve.rho - exact).max())
    elapsed = time.perf_counter() - t0
    report(
        1,
        err <= 1e-3 and coarse_flagged,
        f"max |rho - exact| = {err:.2e} at 65536 points (tol 1e-3); "
        f"8192-point rule flagged unconverged by doubling check "
        f"(its error: {coarse_err:.2e})",
        elapsed,
        10.0,
    )


def test_criterion_2_critical_ratio_edge_law():
    """Scaled a=1 density follows the x^(-1/3) small-frequency law."""
    t0 = time.perf_counter()
    x = np.logspace(-6, -3, 60)
    rho = rmt_scaled_a1(x)
    slope = float(np.polyfit(np.log(x), np.log(rho), 1)[0])
    elapsed = time.perf_counter() - t0
    report(2, abs(slope + 1.0 / 3.0) <= 0.02,
           f"log-log slope {slope:.4f} (want -1/3 +/- 0.02)", elapsed, 1.0)


def test_criterion_3_spectral_gap_above_critical_ratio():
    """a > 1 opens a clean low-frequency gap that grows with a - 1."""
    t0 = time.perf_counter()
    edges = {}
    for a in (1.25, 1.5, 2.0):
        edges[a] = find_gap_edge(ModelParams(a=a, b=1.0, nu=0.0))
    params = ModelParams(a=2.0, b=1.0, nu=0.0)
    gap_grid = np.linspace(0.05, 0.98, 12) * edges[2.0]
    rho_in = []
    for w in gap_grid:
        cp = solve_p(1e-9 + 1j * w, params)
        rho_in.append((cp.z / (cp.z**2 + cp.p**2)).real / np.pi)
    rho_in = np.array(rho_in)
    cp_out = solve_p(1e-9 + 1.2j * edges[2.0], params)
    rho_out = (cp_out.z / (cp_out.z**2 + cp_out.p**2)).real / np.pi
    ok = (
        edges[1.25] > 0
        and edges[1.25] < edges[1.5] < edges[2.0]
        and rho_in.max() <= 1e-6
        and rho_out > 1e-6
    )
    elapsed = time.perf_counter() - t0
    report(3, ok,
           f"edges {edges[1.25]:.4f} < {edges[1.5]:.4f} < {edges[2.0]:.4f}, "
           f"max in-gap rho {rho_in.max():.1e}", elapsed, 5.0)


def test_criterion_4_zero_mode_mass():
    """Rank deficiency fixes the zero-frequency fraction at 1 - a exactly."""
    t0 = time.perf_counter()
    params = ModelParams(N=32, M=48, b=1.0, nu=0.0)
    hist = mc_dos(params, n_samples=100, bins=100, seed=0)
    frac = hist.zero_mode_fraction
    elapsed = time.perf_counter() - t0
    report(4, frac == 0.25,
           f"zero-mode fraction {frac} from {hist.total_eigenvalues} "
           f"eigenvalues (want exactly 0.25)", elapsed, 30.0)


def test_criterion_5_flat_band_oracle_equivalence():
    """Mean-field curve matches the sampled a=1 ensemble at finite N."""
    t0 = time.perf_counter()
    params = ModelParams(a=1.0, N=32, M=64, b=1.0, nu=0.0)
    hist = mc_dos(params, n_samples=500, bins=100, seed=0)
    grid = np.linspace(0.004, float(hist.bin_edges[-1]), 700)
    curve = dos_curve(grid, 1e-6, ModelParams(a=1.0, b=1.0, nu=0.0))
    l1, _ = compare_curves(grid, curve.rho, hist.bin_centers, hist.widths,
                           hist.densities)
    elapsed = time.perf_counter() - t0
    report(5, l1 <= 0.05, f"L1 distance {l1:.4f} (tol 0.05, "
           f"{hist.total_eigenvalues} eigenvalues)", elapsed, 120.0)


def test_criterion_6_lattice_oracle_equivalence():
    """Mean-field curve matches the sampled d=1 lattice ensemble."""
    t0 = time.perf_counter()
    params = ModelParams(d=1, extents=(32,), N=8, M=12, b=0.63, nu=1.0)
    hist = mc_dos(params, n_samples=200, bins=100, seed=0)
    grid = np.linspace(0.01, float(hist.bin_edges[-1]), 400)
    curve = dos_curve(grid, 1e-3, ModelParams(d=1, a=0.75, b=0.63, nu=1.0))
    l1, _ = compare_curves(grid, curve.rho, hist.bin_centers, hist.widths,
                           hist.densities)
    # the low-frequency peak: lowest local maximum of each curve, with the
    # histogram lightly smoothed against bin noise
    peak_cpa = lowest_local_max(grid, curve.rho)
    smooth = np.convolve(hist.densities, np.ones(3) / 3.0, mode="same")
    peak_mc = lowest_local_max(hist.bin_centers, smooth)
    rel_peak = abs(peak_mc - peak_cpa) / peak_cpa
    elapsed = time.perf_counter() - t0
    report(6, l1 <= 0.08 and rel_peak <= 0.15,
           f"L1 distance {l1:.4f} (tol 0.08); low-frequency peak at "
           f"{peak_mc:.3f} (sampled) vs {peak_cpa:.3f} (mean-field), "
           f"off by {100 * rel_peak:.1f}% (tol 15%)", elapsed, 300.0)


def test_criterion_7_invariant_suite(tmp_path):
    """Structural invariants at their stated tolerances."""
    t0 = time.perf_counter()
    checks = {}

    # oddness of the resolvent integrand in z at fixed p
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        z = complex(rng.uniform(0.1, 2.0), rng.uniform(-2.0, 2.0))
        p = complex(rng.uniform(0.05, 1.0), rng.uniform(-1.0, 1.0))
        s = I_g(z, p, 1.0, 1, 64) + I_g(-z, p, 1.0, 1, 64)
        worst = max(worst, abs(s))
    checks["oddness <= 1e-12"] = worst <= 1e-12

    # +/- pairing of sampled spectra (multiset identity)
    rmt = ModelParams(a=0.75, N=8, M=12, b=1.0, nu=0.0)
    mu = spectrum_X(draw_sample(rmt, np.random.SeedSequence(1)), rmt)
    pair_ok = np.allclose(np.sort(mu), np.sort(-mu), atol=1e-9)
    lat = ModelParams(d=1, extents=(6,), N=2, M=3, b=0.8, nu=1.0)
    mu2 = spectrum_X(draw_sample(lat, np.random.SeedSequence(2)), lat)
    pair_ok &= np.allclose(np.sort(mu2), np.sort(-mu2), atol=1e-9)
    checks["pairing 1e-9"] = bool(pair_ok)

    # cone membership of sampled reductions
    cone_ok = True
    for seed in range(5):
        H = draw_sample(rmt, np.random.SeedSequence(seed))
        w = np.linalg.eigvalsh(H)
        cone_ok &= w.min() >= -1e-10 * np.abs(w).max()
    checks["cone membership"] = bool(cone_ok)

    # solver residuals along production sweeps
    lattice = ModelParams(d=1, a=0.75, b=0.63, nu=1.0)
    curve = dos_curve(np.linspace(0.1, 2.5, 40), 1e-3, lattice)
    curve_rmt = dos_curve(np.linspace(0.05, 3.0, 40), 1e-3,
                          ModelParams(a=2.0, b=1.0, nu=0.0))
    checks["residuals <= 1e-12"] = (
        curve.residuals.max() <= 1e-12 and curve_rmt.residuals.max() <= 1e-12
    )

    # quadrature doubling check at rel_tol 1e-9 in the resolved regime: the
    # pure chain (b = 0, p = 0) checked at z = 0.1 + 0.8i on 256 points
    checked = dos_curve([0.8], 0.1, ModelParams(d=1, extents=(256,), a=0.75, b=0.0, nu=1.0),
                        check=True)
    checks["doubling 1e-9"] = not any("doubling" in note for note in checked.notes)

    # Gaussian trace moment: on the flat band E Tr H = E Tr L^dagger L = M b
    # within 3 standard errors
    mparams = ModelParams(a=0.75, N=2, M=3, b=0.7, nu=0.0)
    traces = np.array([
        np.trace(draw_sample(mparams, child))
        for child in np.random.SeedSequence(4).spawn(10_000)
    ])
    stderr = traces.std(ddof=1) / np.sqrt(traces.size)
    checks["moment 3se"] = abs(traces.mean() - mparams.M * mparams.b) <= 3 * stderr

    # seed determinism: byte-identical emitted histograms
    h1 = mc_dos(rmt, n_samples=5, bins=16, seed=11)
    h2 = mc_dos(rmt, n_samples=5, bins=16, seed=11)
    f1, f2 = tmp_path / "h1.csv", tmp_path / "h2.csv"
    for f, h in ((f1, h1), (f2, h2)):
        emit_csv(str(f), {"seed": h.seed}, {
            "bin_left": h.bin_edges[:-1], "bin_right": h.bin_edges[1:],
            "density": h.densities, "count": h.counts,
        })
    checks["seed byte-identity"] = f1.read_bytes() == f2.read_bytes()

    elapsed = time.perf_counter() - t0
    failed = [name for name, ok in checks.items() if not ok]
    report(7, not failed,
           "all invariants hold" if not failed else f"failed: {failed}",
           elapsed, 60.0)


def test_criterion_8_limit_cross_validation():
    """The flat-band limit and the weak-disorder limit are consistent."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    worst_rmt = 0.0
    for _ in range(20):
        a = rng.uniform(0.5, 2.5)
        b = rng.uniform(0.5, 2.0)
        z = complex(rng.uniform(0.05, 1.0), rng.uniform(0.0, 2.5))
        g_lattice_path = solve_p(z, ModelParams(d=1, extents=(64,), a=a, b=b, nu=1e-12)).g
        g_rmt_path = solve_p(z, ModelParams(a=a, b=b, nu=0.0)).g
        worst_rmt = max(worst_rmt, abs(g_lattice_path - g_rmt_path))

    # at b = 0 the curve must coincide with the clean resolvent quadrature
    clean = ModelParams(d=1, extents=(4096,), a=0.75, b=0.0, nu=1.0)
    k = 2.0 * np.pi * np.arange(4096) / 4096
    worst_clean = 0.0
    for omega in np.linspace(0.2, 1.2, 10):
        z = 1e-3 + 1j * omega
        direct = z * np.mean(1.0 / (z * z + 1.0 - np.cos(k)))
        worst_clean = max(worst_clean, abs(solve_p(z, clean).g - direct))
        tiny = solve_p(z, ModelParams(d=1, extents=(4096,), a=0.75, b=1e-12, nu=1.0)).g
        worst_clean = max(worst_clean, abs(tiny - direct))

    ok = worst_rmt <= 1e-8 and worst_clean <= 1e-10
    elapsed = time.perf_counter() - t0
    report(8, ok,
           f"flat-band path agreement {worst_rmt:.1e} (tol 1e-8); "
           f"weak-disorder agreement {worst_clean:.1e} (tol 1e-10)",
           elapsed, 60.0)
