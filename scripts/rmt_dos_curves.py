#!/usr/bin/env python3
"""Flat-band (no lattice) density curves across the ratio a = M/2N.

Produces, for b = 1:
  * the gapped curve at a = 2 together with its closed-form gap edge,
  * the a = 0.75 curve whose missing weight sits in the zero-frequency
    point mass (1 - a),
  * the critical a = 1 curve with its x^(-1/3) small-frequency law,
and a Monte Carlo overlay for each, written as CSV into --out-dir.

Each ratio is three CLI runs: ``mc-dos``; ``cpa-dos`` up to the
histogram's top edge; and ``compare``, which checks that both files hold
one model and prints the L1.  At the defaults (N = 32, 300 samples,
seed 0) the L1 is 0.0286 at a = 2, 0.0343 at a = 1 and 0.0315 at a = 0.75.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from bosondos import ModelParams, find_gap_edge, rmt_scaled_a1
from bosondos.cli import emit_csv, main as cli, parse_csv


def run(*argv):
    """One CLI run; a failed one ends the script with its exit status."""
    status = cli([str(arg) for arg in argv])
    if status:
        sys.exit(status)


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
        print(f"a = {a}")
        # mc-dos rejects an N whose M = 2Na is not a whole number
        model = ["--a", a, "--N", args.N, "--M", round(2 * args.N * a),
                 "--b", b, "--nu", 0]
        hist, curve = out / f"mc_a{a}.csv", out / f"cpa_a{a}.csv"
        run("mc-dos", *model, "--samples", args.samples, "--bins", 100,
            "--seed", args.seed, "--out", hist)
        # the curve covers every bin center, from top / 640 up to the top edge
        top = float(parse_csv(str(hist))[1]["bin_right"][-1])
        run("cpa-dos", *model, "--omega-min", top / 640, "--omega-max", top,
            "--omega-steps", 640, "--eps", 1e-6, "--out", curve)
        run("compare", "--cpa", curve, "--mc", hist)
        if a > 1:
            print(f"gap edge = {find_gap_edge(ModelParams(a=a, b=b)):.4f}")

    # critical-ratio small-frequency law in scaled units
    x = np.logspace(-6, 0.3, 200)
    emit_csv(str(out / "scaled_a1_law.csv"), {"edge": 1.5 * np.sqrt(3.0)},
             {"x": x, "density": rmt_scaled_a1(x)})
    slope = np.polyfit(np.log(x[x < 1e-3]), np.log(rmt_scaled_a1(x[x < 1e-3])), 1)[0]
    print(f"a=1 scaled law: log-log slope {slope:.4f} (expected -1/3)")


if __name__ == "__main__":
    main()
