"""Workload table, seeded CLI inputs and the output checks behind the error rate.

Each workload is one ``bosondos`` CLI invocation.  ``size`` is the number of
work units per invocation: omega points for ``cpa-dos``, realizations for
``mc-dos``.  The seed is the Monte Carlo root seed; for ``cpa-dos`` it picks a
sub-step offset of the omega grid.  At ``DEFAULT_SEED`` the inputs are the
CLI's own defaults and the output is also compared with the reference under
``reference/``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

DEFAULT_SEED = 0
# A seed no workload was tuned on; a speed claim must hold here as well.
CHECK_SEED = 20101

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# |2 * int rho + point mass - 1| on the benchmark's omega grids, which stop
# at omega = 3 and start one step above zero; measured 1e-3 at worst.
NORMALIZATION_TOL = 0.02
# Reordering the zone sums moves rho by ~1e-15 of max|rho|; the solver's
# Newton tolerance is 1e-12.
REF_RHO_TOL = 1e-9
REF_EDGE_RTOL = 1e-9
# Eigenvalues moved across a bin edge by rounding, as a share of all of them.
REF_MOVED_SHARE = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    flags: Tuple[str, ...]
    size: int
    layers: Tuple[str, ...]  # layers that must record spans when traced
    eigs_per_unit: int = 0  # mc-dos: eigenvalues per realization (2N * sites)
    zero_mode_fraction: Optional[Fraction] = None  # exact, where the model fixes it

    @property
    def unit(self) -> str:
        return "omega point" if self.mode == "cpa-dos" else "realization"

    def flag(self, name: str) -> str:
        return self.flags[self.flags.index(name) + 1]

    def omega_grid(self, seed: int) -> np.ndarray:
        """The grid the CLI is asked for: the default grid at DEFAULT_SEED,
        otherwise shifted up by a seeded fraction of one step."""
        omega_max = float(self.flag("--omega-max"))
        step = omega_max / self.size
        shift = 0.0 if seed == DEFAULT_SEED else random.Random(seed).random()
        return np.linspace(step * (1.0 + shift), omega_max, self.size)

    def argv(self, seed: int, out: str) -> List[str]:
        if self.mode == "cpa-dos":
            lo = float(self.omega_grid(seed)[0])
            sized = ["--omega-steps", str(self.size), "--omega-min", repr(lo)]
        else:
            sized = ["--samples", str(self.size), "--seed", str(seed)]
        return [self.mode, *self.flags, *sized, "--out", out]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cpa-d3", "cpa-dos",
            ("--d", "3", "--a", "0.75", "--b", "0.63", "--nu", "1",
             "--omega-max", "3"),
            size=60, layers=("cli", "cpa", "bzquad"),
        ),
        Workload(
            "cpa-d1", "cpa-dos",
            ("--d", "1", "--a", "0.75", "--b", "0.63", "--nu", "1",
             "--omega-max", "3", "--eps", "1e-3", "--kgrid", "4096"),
            size=600, layers=("cli", "cpa", "bzquad"),
        ),
        Workload(
            "mc-lattice", "mc-dos",
            ("--d", "1", "--extents", "32", "--N", "8", "--M", "12",
             "--b", "0.63", "--nu", "1"),
            size=6, layers=("cli", "ensemble", "linalg", "model"),
            eigs_per_unit=2 * 8 * 32,
        ),
        Workload(
            "mc-flat", "mc-dos",
            ("--N", "8", "--M", "12", "--b", "1", "--nu", "0"),
            size=3000, layers=("cli", "ensemble", "linalg"),
            eigs_per_unit=2 * 8,
            zero_mode_fraction=1 - Fraction(12, 2 * 8),
        ),
    )
}


def read_csv(path) -> Tuple[Dict[str, str], Dict[str, np.ndarray]]:
    """``# key = value`` preamble and float columns of a CLI output file."""
    meta: Dict[str, str] = {}
    header: Optional[List[str]] = None
    rows: List[List[float]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep:
                    meta[key.strip()] = value.strip()
            elif line and header is None:
                header = line.split(",")
            elif line:
                rows.append([float(tok) for tok in line.split(",")])
    if header is None:
        raise ValueError(f"{path}: no header row")
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return meta, {name: table[:, i] for i, name in enumerate(header)}


def reference_path(wl: Workload) -> Path:
    return REFERENCE_DIR / f"{wl.name}.json"


def summarize(wl: Workload, path) -> dict:
    """The part of an output file the reference keeps."""
    meta, cols = read_csv(path)
    if wl.mode == "cpa-dos":
        return {"omega": cols["omega"].tolist(), "rho": cols["rho"].tolist()}
    edges = np.append(cols["bin_left"], cols["bin_right"][-1:])
    return {
        "bin_edges": edges.tolist(),
        "counts": [int(c) for c in cols["count"]],
        "total_eigenvalues": int(meta["total_eigenvalues"]),
        "zero_mode_count": int(meta["zero_mode_count"]),
        "overflow_count": int(meta["overflow_count"]),
    }


def check_output(wl: Workload, seed: int, path) -> Tuple[int, List[str]]:
    """(failed units, problems) for one successful invocation's output file.

    A cpa point fails when its residual or density is not finite; any
    problem with the file as a whole fails every unit.
    """
    try:
        meta, cols = read_csv(path)
        if wl.mode == "cpa-dos":
            failed, problems = _check_cpa(wl, seed, meta, cols)
        else:
            failed, problems = 0, _check_mc(wl, seed, meta, cols)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return wl.size, [f"unreadable output: {type(exc).__name__}: {exc}"]
    return (wl.size if problems else failed), problems


def _reference(wl: Workload) -> dict:
    with open(reference_path(wl), encoding="utf-8") as fh:
        return json.load(fh)


def _check_cpa(wl, seed, meta, cols):
    omega, rho = cols["omega"], cols["rho"]
    expected = wl.omega_grid(seed)
    if omega.shape != expected.shape or not np.allclose(omega, expected, rtol=1e-12, atol=0):
        return wl.size, [f"omega grid differs from the requested {wl.size}-point grid"]
    failed = int(np.count_nonzero(~(np.isfinite(cols["residual"]) & np.isfinite(rho))))
    problems = []
    norm = 2.0 * float(np.trapezoid(rho, omega)) + float(meta["dirac_mass_at_zero"])
    if not abs(norm - 1.0) <= NORMALIZATION_TOL:
        problems.append(f"normalization {norm!r} is not within {NORMALIZATION_TOL} of 1")
    if seed == DEFAULT_SEED:
        ref = np.asarray(_reference(wl)["rho"])
        dev = float(np.max(np.abs(rho - ref))) if ref.shape == rho.shape else math.inf
        if not dev <= REF_RHO_TOL * float(np.max(np.abs(ref))):
            problems.append(f"rho deviates from the reference by {dev!r}")
    return failed, problems


def _check_mc(wl, seed, meta, cols):
    problems = []
    total = int(meta["total_eigenvalues"])
    zero = int(meta["zero_mode_count"])
    overflow = int(meta["overflow_count"])
    counts = cols["count"]
    widths = cols["bin_right"] - cols["bin_left"]
    if total != wl.size * wl.eigs_per_unit:
        problems.append(f"{total} eigenvalues, expected {wl.size * wl.eigs_per_unit}")
    booked = int(counts.sum()) + zero + overflow
    if booked != total:
        problems.append(f"booked {booked} eigenvalues of {total}")
    mass = 2.0 * float(np.sum(cols["density"] * widths)) + (zero + overflow) / total
    if not abs(mass - 1.0) <= 1e-12:
        problems.append(f"two-sided mass {mass!r} is not 1")
    if wl.zero_mode_fraction is not None and zero != total * wl.zero_mode_fraction:
        problems.append(f"zero-mode fraction {zero}/{total} is not {wl.zero_mode_fraction}")
    if seed == DEFAULT_SEED:
        ref = _reference(wl)
        for key, got in (("total_eigenvalues", total), ("zero_mode_count", zero),
                         ("overflow_count", overflow)):
            if got != ref[key]:
                problems.append(f"{key} {got} differs from the reference {ref[key]}")
        edges = np.append(cols["bin_left"], cols["bin_right"][-1:])
        ref_edges = np.asarray(ref["bin_edges"])
        if edges.shape != ref_edges.shape or not np.allclose(
            edges, ref_edges, rtol=REF_EDGE_RTOL, atol=0
        ):
            problems.append("bin edges differ from the reference")
        else:
            moved = int(np.abs(counts - np.asarray(ref["counts"])).sum()) // 2
            if moved > max(2, REF_MOVED_SHARE * total):
                problems.append(f"{moved} eigenvalues binned differently from the reference")
    return problems
