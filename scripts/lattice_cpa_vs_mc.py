#!/usr/bin/env python3
"""d = 1 lattice: mean-field density against the Monte Carlo oracle.

Sweeps the two disorder strengths that bracket the interesting regime:
b = 0.15 (van Hove remnant still visible near omega = sqrt(2) nu) and
b = 0.63 (low-frequency peak, bulk pushed upward).  Each strength is three
CLI runs: ``mc-dos`` on the periodic chain; ``cpa-dos --kgrid`` on the
momenta of that same chain, up to the histogram's top edge; and
``compare``, which checks that both files hold one model and prints the L1.

At the defaults (32 sites, N = 8, 200 samples, seed 0) the L1 is 0.0148 at
b = 0.15 and 0.0124 at b = 0.63; against the 4096-point stand-in for the
infinite chain it is 0.136 at b = 0.15, the chain's finite-size floor, and
the same 0.0124 at b = 0.63.
"""

import argparse
import sys
from pathlib import Path

from bosondos.cli import main as cli, parse_csv


def run(*argv):
    """One CLI run; a failed one ends the script with its exit status."""
    status = cli([str(arg) for arg in argv])
    if status:
        sys.exit(status)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results/lattice")
    ap.add_argument("--sites", type=int, default=32)
    ap.add_argument("--N", type=int, default=8)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # a = M/(2N) as near 0.75 as N allows, the same on both routes
    M = round(2 * args.N * 0.75)
    for b in (0.15, 0.63):
        print(f"b = {b}: {args.samples} samples of {args.sites} sites, N={args.N}")
        model = ["--d", 1, "--N", args.N, "--M", M, "--b", b, "--nu", 1.0]
        hist, curve = out / f"mc_b{b}.csv", out / f"cpa_b{b}.csv"
        run("mc-dos", *model, "--extents", args.sites, "--samples", args.samples,
            "--bins", 100, "--seed", args.seed, "--out", hist)
        # the curve covers every bin center, from top / 480 up to the top edge
        top = float(parse_csv(str(hist))[1]["bin_right"][-1])
        run("cpa-dos", *model, "--kgrid", args.sites, "--omega-min", top / 480,
            "--omega-max", top, "--omega-steps", 480, "--eps", 1e-3, "--out", curve)
        run("compare", "--cpa", curve, "--mc", hist)


if __name__ == "__main__":
    main()
