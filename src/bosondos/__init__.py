"""Density of eigenfrequencies of disordered boson lattices.

Two independent routes to the same quantity: a self-consistent mean-field
(coherent potential) solver for the disorder-averaged resolvent, and a
Monte Carlo oracle that samples finite realizations of the constrained
random ensemble and diagonalizes them exactly.
"""

__version__ = "0.1.0"

from .cpa import (
    BranchError,
    CoherentPotential,
    DosCurve,
    SolverError,
    continuation_sweep,
    default_eps,
    dos_curve,
    find_gap_edge,
    rmt_scaled_a1,
    solve_p,
)
from .ensemble import SpectrumHistogram, mc_dos
from .linalg import NotPsdError
from .model import ModelParams

__all__ = [
    "__version__",
    "BranchError",
    "CoherentPotential",
    "DosCurve",
    "ModelParams",
    "NotPsdError",
    "SolverError",
    "SpectrumHistogram",
    "continuation_sweep",
    "default_eps",
    "dos_curve",
    "find_gap_edge",
    "mc_dos",
    "rmt_scaled_a1",
    "solve_p",
]
