#!/usr/bin/env python3
"""Flat-band (no lattice) density curves across the ratio a = M/2N.

Produces, for b = 1:
  * the gapped curve at a = 2 together with its closed-form gap edge,
  * the a = 0.75 curve whose missing weight sits in the zero-frequency
    point mass (1 - a),
  * the critical a = 1 curve with its x^(-1/3) small-frequency law,
and a Monte Carlo overlay for each, written as CSV next to --out-dir.
"""

import argparse
from pathlib import Path

import numpy as np

from bosondos import ModelParams, dos_curve, find_gap_edge, mc_dos, rmt_scaled_a1
from bosondos.cli import compare_curves, emit_csv


def write_curve(path, curve, extra=None):
    meta = {
        "eps": curve.eps,
        "dirac_mass_at_zero": curve.dirac_mass_at_zero,
        "normalization": curve.normalization,
    }
    meta.update(extra or {})
    emit_csv(str(path), meta, {
        "omega": curve.omegas,
        "rho": curve.rho,
        "p_re": curve.p.real,
        "p_im": curve.p.imag,
        "residual": curve.residuals,
    })


def write_hist(path, hist, extra=None):
    meta = {
        "seed": hist.seed,
        "total_eigenvalues": hist.total_eigenvalues,
        "zero_mode_fraction": hist.zero_mode_fraction,
    }
    meta.update(extra or {})
    emit_csv(str(path), meta, {
        "bin_left": hist.bin_edges[:-1],
        "bin_right": hist.bin_edges[1:],
        "density": hist.densities,
        "count": hist.counts,
    })


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results/rmt", help="output directory")
    ap.add_argument("--samples", type=int, default=300)
    ap.add_argument("--N", type=int, default=32)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    b = 1.0
    for a in (2.0, 1.0, 0.75):
        M = int(round(2 * args.N * a))
        mc_params = ModelParams(N=args.N, M=M, b=b, nu=0.0)
        hist = mc_dos(mc_params, n_samples=args.samples, bins=100, seed=args.seed)
        write_hist(out / f"mc_a{a}.csv", hist, {"N": args.N, "M": M})

        # the curve covers every bin center, from top / 640 up to the top edge
        top = float(hist.bin_edges[-1])
        omegas = np.linspace(top / 640, top, 640)
        params = ModelParams(a=a, b=b, nu=0.0)
        curve = dos_curve(omegas, 1e-6, params)
        extra = {}
        if a > 1:
            extra["gap_edge"] = find_gap_edge(params)
        write_curve(out / f"cpa_a{a}.csv", curve, extra)

        l1, mx = compare_curves(omegas, curve.rho, hist.bin_centers,
                                hist.widths, hist.densities)
        print(f"a={a}: L1(mean-field, sampled) = {l1:.4f}, max dev = {mx:.4f}, "
              f"zero-mode fraction = {hist.zero_mode_fraction:.4f}"
              + (f", gap edge = {extra['gap_edge']:.4f}" if a > 1 else ""))

    # critical-ratio small-frequency law in scaled units
    x = np.logspace(-6, 0.3, 200)
    emit_csv(str(out / "scaled_a1_law.csv"), {"edge": 1.5 * np.sqrt(3.0)},
             {"x": x, "density": rmt_scaled_a1(x)})
    slope = np.polyfit(np.log(x[x < 1e-3]), np.log(rmt_scaled_a1(x[x < 1e-3])), 1)[0]
    print(f"a=1 scaled law: log-log slope {slope:.4f} (expected -1/3)")


if __name__ == "__main__":
    main()
