"""Command-line front end: mean-field sweeps, Monte Carlo runs, comparisons.

Output files are plain CSV with a ``#``-comment preamble carrying the full
run configuration and diagnostics, one uncommented header row, and
full-precision (round-trip exact) numeric columns.  Identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bzquad import QuadratureSpec, default_points_per_dim
from .cpa import (
    BranchError,
    SolverError,
    default_eps,
    dos_curve,
    solve_p,
)
from .ensemble import ConeViolationError, mc_dos
from .linalg import NotPsdError
from .model import ModelParams

__all__ = ["RunConfig", "run", "main", "emit_csv", "parse_csv", "compare_curves"]

MODES = ("cpa-dos", "rmt-dos", "mc-dos", "solve-p", "compare")


@dataclass(frozen=True)
class RunConfig:
    """Flat bag of every CLI flag; mode decides which fields are consulted."""

    mode: str
    d: int = 1
    extents: Optional[Tuple[int, ...]] = None
    N: Optional[int] = None
    M: Optional[int] = None
    a: Optional[float] = None
    b: float = 0.0
    nu: float = 0.0
    omega_min: Optional[float] = None
    omega_max: float = 3.0
    omega_steps: int = 600
    eps: Optional[float] = None
    kgrid: Optional[int] = None
    check_quadrature: bool = False
    richardson: bool = False
    samples: int = 100
    bins: int = 100
    seed: int = 0
    z_re: float = 1.0
    z_im: float = 0.0
    cpa: Optional[str] = None
    mc: Optional[str] = None
    threshold: float = float("inf")
    out: Optional[str] = None


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return repr(int(value))
    return str(value)


def emit_csv(path: str, metadata: Dict[str, object], columns: Dict[str, Sequence]) -> None:
    """Write ``# key = value`` preamble, a header row, and full-precision rows.

    An empty column set (or zero rows) produces a header-only file.
    """
    names = list(columns)
    rows = len(next(iter(columns.values()))) if names else 0
    lines = [f"# {key} = {_fmt(val)}" for key, val in metadata.items()]
    if names:
        lines.append(",".join(names))
    for i in range(rows):
        lines.append(",".join(_fmt(columns[name][i]) for name in names))
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

    The curve is linearly interpolated onto the histogram bin centers; the
    L1 distance is the integral of the absolute difference over the binned
    range.
    """
    interp = np.interp(centers, cpa_omegas, cpa_rho)
    diff = np.abs(np.asarray(mc_density) - interp)
    return float(np.sum(diff * widths)), float(diff.max(initial=0.0))


def _model_flags(p: argparse.ArgumentParser, rmt: bool = False) -> None:
    if not rmt:
        p.add_argument("--d", type=int, default=1, help="spatial dimension (default 1)")
        p.add_argument(
            "--extents",
            type=str,
            default=None,
            help="comma-separated periodic lattice sizes, e.g. '32' or '8,8' "
            "(default: none, single site; required when nu > 0)",
        )
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


def _omega_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega-min", type=float, default=None,
                   help="lowest frequency (default omega_max/omega_steps)")
    p.add_argument("--omega-max", type=float, default=3.0,
                   help="highest frequency (default 3.0)")
    p.add_argument("--omega-steps", type=int, default=600,
                   help="number of grid points (default 600; 0 emits a "
                   "header-only file)")
    p.add_argument("--eps", type=float, default=None,
                   help="spectral regularization (default 1e-3 of the "
                   "dominant scale)")
    p.add_argument("--kgrid", type=int, default=None,
                   help="quadrature points per dimension (default 4096 for "
                   "d=1, 256 for d=2, 64 for d=3)")
    p.add_argument("--check-quadrature", action="store_true",
                   help="run the grid-doubling accuracy check on reported "
                   "values (default off)")
    p.add_argument("--richardson", action="store_true",
                   help="extrapolate the eps broadening away using a second "
                   "sweep at eps/2 (default off)")


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("rmt-dos", help="mean-field density in the random-matrix "
                       "limit (nu = 0)")
    _model_flags(p, rmt=True)
    _omega_flags(p)
    p.add_argument("--out", type=str, default="rmt-dos.csv",
                   help="output CSV path (default rmt-dos.csv)")

    p = sub.add_parser("mc-dos", help="Monte Carlo eigenfrequency histogram")
    _model_flags(p)
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
    p.add_argument("--kgrid", type=int, default=None,
                   help="quadrature points per dimension (default per-d)")
    p.add_argument("--out", type=str, default=None,
                   help="optional CSV path (default: print only)")

    p = sub.add_parser("compare", help="L1 distance between a mean-field curve "
                       "and a Monte Carlo histogram")
    p.add_argument("--cpa", type=str, required=True,
                   help="CSV from cpa-dos or rmt-dos (required)")
    p.add_argument("--mc", type=str, required=True,
                   help="CSV from mc-dos (required)")
    p.add_argument("--threshold", type=float, default=float("inf"),
                   help="exit nonzero when L1 exceeds this (default inf)")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = {}
    known = {f.name for f in fields(RunConfig)}
    for key, val in vars(args).items():
        name = key.replace("-", "_")
        if name in known:
            values[name] = val
    if values.get("extents"):
        values["extents"] = tuple(int(tok) for tok in str(values["extents"]).split(","))
    return RunConfig(**values)


def _build_params(config: RunConfig, rmt: bool) -> ModelParams:
    return ModelParams(
        d=1 if rmt else config.d,
        extents=None if rmt else config.extents,
        N=config.N,
        M=config.M,
        a=config.a,
        b=config.b,
        nu=0.0 if rmt else config.nu,
    )


def _omega_grid(config: RunConfig) -> np.ndarray:
    if config.omega_steps <= 0:
        return np.zeros(0)
    lo = config.omega_min
    if lo is None:
        lo = config.omega_max / config.omega_steps
    if lo <= 0:
        raise ValueError("omega-min must be positive")
    return np.linspace(lo, config.omega_max, config.omega_steps)


def _metadata(config: RunConfig) -> Dict[str, object]:
    meta: Dict[str, object] = {"version": __version__}
    for f in fields(RunConfig):
        val = getattr(config, f.name)
        if val is not None:
            meta[f.name] = val
    return meta


def _run_dos(config: RunConfig, rmt: bool) -> int:
    params = _build_params(config, rmt)
    omegas = _omega_grid(config)
    meta = _metadata(config)
    if omegas.size == 0:
        print("warning: empty frequency grid, emitting header-only file",
              file=sys.stderr)
        meta["warning"] = "empty frequency grid"
        emit_csv(config.out, meta,
                 {"omega": [], "rho": [], "p_re": [], "p_im": [], "residual": []})
        return 0
    eps = default_eps(params) if config.eps is None else config.eps
    kgrid = default_points_per_dim(params.d) if config.kgrid is None else config.kgrid
    spec = QuadratureSpec(points_per_dim=kgrid,
                          convergence_check=config.check_quadrature)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        curve = dos_curve(omegas, eps, params, spec,
                          richardson=config.richardson)
    notes = [str(w.message) for w in caught] + list(curve.notes)
    for i, note in enumerate(dict.fromkeys(notes)):
        print(f"warning: {note}", file=sys.stderr)
        meta[f"warning_{i}"] = note
    meta["eps"] = curve.eps
    meta["kgrid"] = kgrid
    meta["dirac_mass_at_zero"] = curve.dirac_mass_at_zero
    meta["normalization"] = curve.normalization
    emit_csv(config.out, meta, {
        "omega": curve.omegas,
        "rho": curve.rho,
        "p_re": curve.p.real,
        "p_im": curve.p.imag,
        "residual": curve.residuals,
    })
    print(f"wrote {config.out} ({curve.omegas.size} points, "
          f"dirac mass {curve.dirac_mass_at_zero:g})")
    return 0


def _run_mc(config: RunConfig) -> int:
    params = _build_params(config, rmt=False)
    meta = _metadata(config)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hist = mc_dos(params, n_samples=config.samples, bins=config.bins,
                      seed=config.seed, omega_max=config.omega_max)
    for i, w in enumerate(caught):
        print(f"warning: {w.message}", file=sys.stderr)
        meta[f"warning_{i}"] = str(w.message)
    meta["total_eigenvalues"] = hist.total_eigenvalues
    meta["zero_mode_count"] = hist.zero_mode_count
    meta["zero_mode_fraction"] = hist.zero_mode_fraction
    meta["zero_tol"] = hist.zero_tol
    meta["overflow_count"] = hist.overflow_count
    emit_csv(config.out, meta, {
        "bin_left": hist.bin_edges[:-1],
        "bin_right": hist.bin_edges[1:],
        "density": hist.densities,
        "count": hist.counts,
    })
    print(f"wrote {config.out} ({config.samples} samples, "
          f"{hist.total_eigenvalues} eigenvalues, "
          f"zero-mode fraction {hist.zero_mode_fraction:g})")
    return 0


def _run_solve_p(config: RunConfig) -> int:
    params = _build_params(config, rmt=False)
    kgrid = default_points_per_dim(params.d) if config.kgrid is None else config.kgrid
    spec = QuadratureSpec(points_per_dim=kgrid)
    cp = solve_p(complex(config.z_re, config.z_im), params, spec)
    print(f"p = {cp.p.real!r} + {cp.p.imag!r}j  "
          f"(residual {cp.residual:.3e}, {cp.iterations} iterations)")
    print(f"branch: {cp.branch_tag}")
    for flag in cp.flags:
        print(f"warning: {flag}", file=sys.stderr)
    if config.out:
        meta = _metadata(config)
        meta["branch_tag"] = cp.branch_tag
        emit_csv(config.out, meta, {
            "z_re": [cp.z.real], "z_im": [cp.z.imag],
            "p_re": [cp.p.real], "p_im": [cp.p.imag],
            "residual": [cp.residual], "iterations": [cp.iterations],
        })
    return 0


def _run_compare(config: RunConfig) -> int:
    cpa_meta, cpa_cols = parse_csv(config.cpa)
    mc_meta, mc_cols = parse_csv(config.mc)
    for need, cols, path in (
        (("omega", "rho"), cpa_cols, config.cpa),
        (("bin_left", "bin_right", "density"), mc_cols, config.mc),
    ):
        missing = [name for name in need if name not in cols]
        if missing:
            raise ValueError(f"{path} lacks columns {missing}")
    if "a" not in mc_meta and {"N", "M"} <= mc_meta.keys():
        mc_meta["a"] = int(mc_meta["M"]) / (2 * int(mc_meta["N"]))
    for key in ("d", "nu", "b", "a"):
        if key in cpa_meta and key in mc_meta:
            if float(cpa_meta[key]) != float(mc_meta[key]):
                raise ValueError(
                    f"{key} differs between {config.cpa} ({cpa_meta[key]}) "
                    f"and {config.mc} ({mc_meta[key]})"
                )
    centers = 0.5 * (mc_cols["bin_left"] + mc_cols["bin_right"])
    first = cpa_cols["omega"].min(initial=np.inf)
    last = cpa_cols["omega"].max(initial=-np.inf)
    if centers.min(initial=np.inf) < first or centers.max(initial=-np.inf) > last:
        raise ValueError(
            f"bin centers {centers.min()!r} to {centers.max()!r} leave the omega "
            f"range [{first!r}, {last!r}] of {config.cpa}; the curve would be "
            f"extrapolated"
        )
    widths = mc_cols["bin_right"] - mc_cols["bin_left"]
    l1, max_dev = compare_curves(cpa_cols["omega"], cpa_cols["rho"],
                                 centers, widths, mc_cols["density"])
    print(f"L1 = {l1!r}")
    print(f"max_deviation = {max_dev!r}")
    return 0 if l1 <= config.threshold else 1


def run(config: RunConfig) -> int:
    """Execute one run; returns the process exit status."""
    try:
        if config.mode == "cpa-dos":
            return _run_dos(config, rmt=False)
        if config.mode == "rmt-dos":
            return _run_dos(config, rmt=True)
        if config.mode == "mc-dos":
            return _run_mc(config)
        if config.mode == "solve-p":
            return _run_solve_p(config)
        if config.mode == "compare":
            return _run_compare(config)
        raise ValueError(f"unknown mode {config.mode!r}")
    except (SolverError, BranchError, ConeViolationError, NotPsdError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return run(config)
    except ValueError as exc:
        # malformed flag values are usage errors, same exit class as argparse
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
