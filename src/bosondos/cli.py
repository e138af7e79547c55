"""Command-line front end: mean-field sweeps, Monte Carlo runs, comparisons.

Each mode's handler runs from the parsed flags of that mode alone.  Output
files are plain CSV with a ``#``-comment preamble, one uncommented header
row, and full-precision (round-trip exact) numeric columns.  The preamble
holds, in order: ``version`` and ``mode``; the resolved model parameters
(``d``, ``extents``, ``N``, ``M``, ``a``, ``b``, ``nu``, each when set;
a lattice's zone grid is its ``extents``); the mode's other flags as parsed
(unset ones left out); then results and warnings.  Identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bzquad import points_per_dim
from .cpa import SolverError, default_eps, dos_curve, solve_p
from .ensemble import ConeViolationError, mc_dos
from .model import ModelParams

__all__ = ["main", "emit_csv", "parse_csv", "compare_curves"]


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return repr(int(value))
    return str(value)


def _fmt_column(column: Sequence) -> List[str]:
    """``_fmt`` of each entry; a 1-d float or integer array is formatted in
    one pass over its Python scalars, to the same strings."""
    if isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype.kind in "fiu":
        return [repr(v) for v in column.tolist()]
    return [_fmt(v) for v in column]


def emit_csv(path: str, metadata: Dict[str, object], columns: Dict[str, Sequence]) -> None:
    """Write ``# key = value`` preamble, a header row, and full-precision rows.

    An empty column set (or zero rows) produces a header-only file.
    """
    lines = [f"# {key} = {_fmt(val)}" for key, val in metadata.items()]
    if columns:
        lines.append(",".join(columns))
    lines += map(",".join, zip(*map(_fmt_column, columns.values()), strict=True))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_csv(path: str):
    """Inverse of :func:`emit_csv`: returns (metadata, columns-of-floats)."""
    metadata: Dict[str, str] = {}
    header: Optional[List[str]] = None
    data: List[List[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    metadata[key.strip()] = val.strip()
                continue
            if header is None:
                header = [name.strip() for name in line.split(",")]
                continue
            data.append([float(tok) for tok in line.split(",")])
    if header is None:
        return metadata, {}
    arr = np.asarray(data, dtype=float) if data else np.zeros((0, len(header)))
    return metadata, {name: arr[:, i] for i, name in enumerate(header)}


def compare_curves(cpa_omegas, cpa_rho, centers, widths, mc_density):
    """L1 distance and max deviation between a mean-field curve and a
    histogram, both in the two-sided density convention.

    The curve, in either omega order, is linearly interpolated onto the
    histogram bin centers; the L1 distance is the integral of the absolute
    difference over the binned range.  A bin center outside the curve's
    omega range raises ValueError, where ``np.interp`` would hold the
    curve's end value.
    """
    # np.interp needs ascending omegas; a curve may be swept downward
    order = np.argsort(cpa_omegas, kind="stable")
    omegas, rho = np.asarray(cpa_omegas)[order], np.asarray(cpa_rho)[order]
    first = float(np.min(omegas, initial=np.inf))
    last = float(np.max(omegas, initial=-np.inf))
    lo = float(np.min(centers, initial=np.inf))
    hi = float(np.max(centers, initial=-np.inf))
    if lo < first or hi > last:
        raise ValueError(f"bin centers {lo!r} to {hi!r} leave the omega range "
                         f"[{first!r}, {last!r}]; the curve would be extrapolated")
    interp = np.interp(centers, omegas, rho)
    diff = np.abs(np.asarray(mc_density) - interp)
    return float(np.sum(diff * widths)), float(diff.max(initial=0.0))


def _model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, default=1, help="spatial dimension (default 1)")
    p.add_argument("--nu", type=float, default=0.0,
                   help="clean frequency scale (default 0)")
    p.add_argument("--N", type=int, default=None,
                   help="bands per site (default: unset)")
    p.add_argument("--M", type=int, default=None,
                   help="auxiliary dimension (default: unset)")
    p.add_argument("--a", type=float, default=None,
                   help="ratio M/(2N) (default: derived from M and N)")
    p.add_argument("--b", type=float, default=0.0,
                   help="disorder strength (default 0)")


def _kgrid_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kgrid", type=int, default=None,
                   help="sites L per dimension of the periodic lattice, whose "
                   "L^d momenta the zone mean runs over, as mc-dos --extents "
                   "L,..,L samples it (default 4096 for d=1, 256 for d=2, 64 "
                   "for d=3; required for d >= 4)")


def _omega_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega-min", type=float, default=None,
                   help="lowest frequency (default omega_max/omega_steps)")
    p.add_argument("--omega-max", type=float, default=3.0,
                   help="highest frequency (default 3.0)")
    p.add_argument("--omega-steps", type=int, default=600,
                   help="number of grid points (default 600; 0 emits a "
                   "header-only file)")
    p.add_argument("--eps", type=float, default=None,
                   help="spectral regularization (default 1e-3 * nu, or "
                   "1e-3 * b at nu = 0)")
    _kgrid_flag(p)
    p.add_argument("--check-quadrature", action="store_true",
                   help="run the grid-doubling accuracy check on reported "
                   "values (default off)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every mode, built once per process and shared: callers
    only parse with it."""
    parser = argparse.ArgumentParser(
        prog="bosondos",
        description="Eigenfrequency density of disordered boson lattices: "
        "mean-field (coherent potential) curves and Monte Carlo histograms.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode", required=True, metavar="|".join(MODES))

    p = sub.add_parser("cpa-dos", help="mean-field density of states on a lattice")
    _model_flags(p)
    _omega_flags(p)
    p.add_argument("--out", type=str, default="cpa-dos.csv",
                   help="output CSV path (default cpa-dos.csv)")

    p = sub.add_parser("mc-dos", help="Monte Carlo eigenfrequency histogram")
    _model_flags(p)
    p.add_argument("--extents", type=str, default=None,
                   help="comma-separated periodic lattice sizes, e.g. '32' or "
                   "'8,8' (default: none, single site; required when nu > 0)")
    p.add_argument("--samples", type=int, default=100,
                   help="number of realizations (default 100)")
    p.add_argument("--bins", type=int, default=100,
                   help="histogram bins (default 100)")
    p.add_argument("--seed", type=int, default=0,
                   help="root RNG seed (default 0)")
    p.add_argument("--omega-max", type=float, default=None,
                   help="histogram range upper edge (default: data maximum)")
    p.add_argument("--out", type=str, default="mc-dos.csv",
                   help="output CSV path (default mc-dos.csv)")

    p = sub.add_parser("solve-p", help="solve the coherent potential at one z")
    _model_flags(p)
    p.add_argument("--z-re", type=float, default=1.0, help="Re z (default 1.0)")
    p.add_argument("--z-im", type=float, default=0.0, help="Im z (default 0.0)")
    _kgrid_flag(p)
    p.add_argument("--out", type=str, default=None,
                   help="optional CSV path (default: print only)")

    p = sub.add_parser("compare", help="L1 distance between a mean-field curve "
                       "and a Monte Carlo histogram")
    p.add_argument("--cpa", type=str, required=True,
                   help="CSV from cpa-dos (required)")
    p.add_argument("--mc", type=str, required=True,
                   help="CSV from mc-dos (required)")
    p.add_argument("--threshold", type=float, default=float("inf"),
                   help="exit nonzero when L1 exceeds this (default inf)")
    return parser


def _model(args: argparse.Namespace) -> Tuple[ModelParams, Dict[str, object]]:
    """The model the flags describe, and the preamble that records the run:
    version and mode, the resolved model, then the mode's other flags as
    parsed.  ``--kgrid`` is read into the extents."""
    given = {f.name: getattr(args, f.name) for f in fields(ModelParams) if f.name in args}
    if given.get("extents") is not None:
        given["extents"] = tuple(int(tok) for tok in given["extents"].split(","))
    params = ModelParams(**given)
    if "kgrid" in args:
        params = _zone_lattice(args, params)
    meta: Dict[str, object] = {"version": __version__, "mode": args.mode}
    meta.update((k, v) for k, v in asdict(params).items() if v is not None)
    meta.update((k, v) for k, v in vars(args).items()
                if k not in ("mode", "kgrid") and k not in given and v is not None)
    return params, meta


def _zone_lattice(args: argparse.Namespace, params: ModelParams) -> ModelParams:
    """``params`` on the lattice the zone mean runs over: extents (L,)*d for
    ``--kgrid L``, else the default grid's.  Unchanged at nu = 0, where no
    grid is read and neither quadrature flag may be given."""
    if params.nu == 0:
        for flag, given in (("--kgrid", args.kgrid is not None),
                            ("--check-quadrature", getattr(args, "check_quadrature", False))):
            if given:
                raise ValueError(f"{flag} given, but no zone grid is used at nu = 0")
        return params
    n = points_per_dim(params) if args.kgrid is None else args.kgrid
    return replace(params, extents=(n,) * params.d)


def _check_finite(args: argparse.Namespace, *flags: str) -> None:
    """Reject a nan or infinite value of a float flag up front, naming it."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")


def _record_notes(meta: Dict[str, object], notes: Sequence[str]) -> None:
    """Print each distinct note once and keep it as ``warning_<i>``."""
    for i, note in enumerate(dict.fromkeys(notes)):
        print(f"warning: {note}", file=sys.stderr)
        meta[f"warning_{i}"] = note


def _omega_grid(args: argparse.Namespace) -> np.ndarray:
    if args.omega_steps < 0:
        raise ValueError(f"omega-steps must be nonnegative, got {args.omega_steps}")
    if args.omega_steps == 0:
        return np.zeros(0)
    if args.omega_max <= 0:
        raise ValueError(f"--omega-max must be positive, got {args.omega_max}")
    lo = args.omega_min
    if lo is None:
        lo = args.omega_max / args.omega_steps
    if lo <= 0:
        raise ValueError("omega-min must be positive")
    return np.linspace(lo, args.omega_max, args.omega_steps)


def _run_dos(args: argparse.Namespace) -> int:
    _check_finite(args, "--omega-min", "--omega-max", "--eps")
    params, meta = _model(args)
    omegas = _omega_grid(args)
    if omegas.size == 0:
        print("warning: empty frequency grid, emitting header-only file",
              file=sys.stderr)
        meta["warning"] = "empty frequency grid"
        emit_csv(args.out, meta,
                 {"omega": [], "rho": [], "p_re": [], "p_im": [], "residual": []})
        return 0
    eps = default_eps(params) if args.eps is None else args.eps
    curve = dos_curve(omegas, eps, params, check=args.check_quadrature)
    _record_notes(meta, curve.notes)
    meta["eps"] = curve.eps
    meta["dirac_mass_at_zero"] = curve.dirac_mass_at_zero
    meta["normalization"] = curve.normalization
    emit_csv(args.out, meta, {
        "omega": curve.omegas,
        "rho": curve.rho,
        "p_re": curve.p.real,
        "p_im": curve.p.imag,
        "residual": curve.residuals,
    })
    print(f"wrote {args.out} ({curve.omegas.size} points, "
          f"dirac mass {curve.dirac_mass_at_zero:g})")
    return 0


def _run_mc(args: argparse.Namespace) -> int:
    _check_finite(args, "--omega-max")
    if args.omega_max is not None and args.omega_max <= 0:
        raise ValueError(f"--omega-max must be positive, got {args.omega_max}")
    params, meta = _model(args)
    hist = mc_dos(params, n_samples=args.samples, bins=args.bins,
                  seed=args.seed, omega_max=args.omega_max)
    _record_notes(meta, hist.notes)
    meta["total_eigenvalues"] = hist.total_eigenvalues
    meta["zero_mode_count"] = hist.zero_mode_count
    meta["zero_mode_fraction"] = hist.zero_mode_fraction
    meta["zero_tol"] = hist.zero_tol
    meta["overflow_count"] = hist.overflow_count
    emit_csv(args.out, meta, {
        "bin_left": hist.bin_edges[:-1],
        "bin_right": hist.bin_edges[1:],
        "density": hist.densities,
        "count": hist.counts,
    })
    print(f"wrote {args.out} ({args.samples} samples, "
          f"{hist.total_eigenvalues} eigenvalues, "
          f"zero-mode fraction {hist.zero_mode_fraction:g})")
    return 0


def _run_solve_p(args: argparse.Namespace) -> int:
    _check_finite(args, "--z-re", "--z-im")
    if args.z_re <= 0:
        raise ValueError(f"--z-re must be positive, got {args.z_re}")
    params, meta = _model(args)
    cp = solve_p(complex(args.z_re, args.z_im), params)
    print(f"p = {cp.p.real!r} + {cp.p.imag!r}j  "
          f"(residual {cp.residual:.3e}, {cp.iterations} iterations)")
    print(f"branch: {cp.branch_tag}")
    if args.out:
        meta["branch_tag"] = cp.branch_tag
        emit_csv(args.out, meta, {
            "z_re": [cp.z.real], "z_im": [cp.z.imag],
            "p_re": [cp.p.real], "p_im": [cp.p.imag],
            "residual": [cp.residual], "iterations": [cp.iterations],
        })
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    if not args.threshold >= 0:  # nan too: no l1 would pass it
        raise ValueError(f"--threshold must be nonnegative, got {args.threshold}")
    cpa_meta, cpa_cols = parse_csv(args.cpa)
    mc_meta, mc_cols = parse_csv(args.mc)
    for need, cols, path in (
        (("omega", "rho"), cpa_cols, args.cpa),
        (("bin_left", "bin_right", "density"), mc_cols, args.mc),
    ):
        missing = [name for name in need if name not in cols]
        if missing:
            raise ValueError(f"{path} lacks columns {missing}")
    # histograms written before mc-dos recorded the resolved a
    if "a" not in mc_meta and {"N", "M"} <= mc_meta.keys():
        mc_meta["a"] = int(mc_meta["M"]) / (2 * int(mc_meta["N"]))
    for key in ("d", "nu", "b", "a"):
        if key in cpa_meta and key in mc_meta:
            if float(cpa_meta[key]) != float(mc_meta[key]):
                raise ValueError(
                    f"{key} differs between {args.cpa} ({cpa_meta[key]}) "
                    f"and {args.mc} ({mc_meta[key]})"
                )
    lattices = cpa_meta.get("extents"), mc_meta.get("extents")
    if None not in lattices and lattices[0] != lattices[1]:
        print(f"warning: extents differ between {args.cpa} ({lattices[0]}) and "
              f"{args.mc} ({lattices[1]}); the L1 then includes the finite-"
              f"lattice mismatch", file=sys.stderr)
    centers = 0.5 * (mc_cols["bin_left"] + mc_cols["bin_right"])
    widths = mc_cols["bin_right"] - mc_cols["bin_left"]
    try:
        l1, max_dev = compare_curves(cpa_cols["omega"], cpa_cols["rho"], centers, widths,
                                     mc_cols["density"])
    except ValueError as exc:
        raise ValueError(f"{args.cpa}: {exc}") from None
    print(f"L1 = {l1!r}")
    print(f"max_deviation = {max_dev!r}")
    return 0 if l1 <= args.threshold else 1


MODES = {
    "cpa-dos": _run_dos,
    "mc-dos": _run_mc,
    "solve-p": _run_solve_p,
    "compare": _run_compare,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one mode; returns the process exit status (0 success, 1 numerical
    or I/O failure, 2 usage error)."""
    args = build_parser().parse_args(argv)
    # a LinAlgError (NotPsdError among them) is a ValueError: the numerical
    # errors are caught before the usage errors
    try:
        return MODES[args.mode](args)
    except (SolverError, ConeViolationError, np.linalg.LinAlgError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # malformed flag values are usage errors, same exit class as argparse
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
