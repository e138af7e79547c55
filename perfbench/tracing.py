"""Spans around calls into each bosondos module, recorded from outside.

A hook rebinds a public function under the name its caller looks it up by
(``bosondos.cli.dos_curve`` is how the CLI reaches ``cpa.dos_curve``), so
the package itself is not modified.  Spans are (name, start, end, parent)
tuples kept in memory; per-layer metrics are computed from them after each
invocation.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# (module the caller looks the name up in, attribute, span name).  The span
# name is "<layer>.<function>" with the layer the module the function lives in.
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("bosondos.cli", "main", "cli.main"),
    ("bosondos.cli", "emit_csv", "cli.emit_csv"),
    ("bosondos.cli", "dos_curve", "cpa.dos_curve"),
    ("bosondos.cpa", "continuation_sweep", "cpa.continuation_sweep"),
    ("bosondos.bzquad", "I_cpa_and_derivative", "bzquad.I_cpa_and_derivative"),
    ("bosondos.bzquad", "I_g", "bzquad.I_g"),
    ("bosondos.bzquad", "I_cpa", "bzquad.I_cpa"),
    ("bosondos.bzquad", "dI_cpa_dp", "bzquad.dI_cpa_dp"),
    ("bosondos.cli", "mc_dos", "ensemble.mc_dos"),
    ("bosondos.ensemble", "draw_sample", "ensemble.draw_sample"),
    ("bosondos.ensemble", "spectrum_X", "ensemble.spectrum_X"),
    ("bosondos.ensemble", "assemble_K", "model.assemble_K"),
    ("bosondos.ensemble", "cholesky_psd", "linalg.cholesky_psd"),
    ("bosondos.ensemble", "hermitian_eig", "linalg.hermitian_eig"),
    ("bosondos.linalg", "check_hermitian", "linalg.check_hermitian"),
)

# name -> unit, in the order BENCHMARK.json lists them.  Times and counts
# are per invocation.
PER_LAYER_UNITS: Dict[str, str] = {
    "bzquad.calls": "count",
    "bzquad.busy_s": "s",
    "bzquad.us_per_call": "us",
    "cpa.calls_per_point": "calls/point",
    "cpa.self_s": "s",
    "cpa.sweep_s": "s",
    "cpa.g_pass_s": "s",
    "cpa.reseeds": "count",
    "cpa.branch_jumps": "count",
    "cpa.unconverged": "count",
    "linalg.cholesky_calls": "count",
    "linalg.cholesky_s": "s",
    "linalg.shifted_ratio": "ratio",
    "linalg.eig_s": "s",
    "linalg.check_calls": "count",
    "linalg.check_s": "s",
    "ensemble.samples": "count",
    "ensemble.draw_s": "s",
    "ensemble.spectrum_s": "s",
    "ensemble.reduce_s": "s",
    "ensemble.bin_s": "s",
    "model.assemble_K_s": "s",
    "cli.emit_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class HookError(RuntimeError):
    """A hook target is missing, so the layer would silently read zero."""


Span = Tuple[str, float, float, int]


class Tracer:
    """Installs the hooks, records spans and restores the originals."""

    def __init__(self):
        self.spans: List[Span] = []
        self.results: Dict[str, list] = defaultdict(list)
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, Callable]] = []

    def install(self) -> None:
        for module_name, attr, span_name in HOOKS:
            module = importlib.import_module(module_name)
            target = getattr(module, attr, None)
            if not callable(target):
                self.restore()
                raise HookError(
                    f"hook target {module_name}.{attr} ({span_name}) is missing; "
                    "update HOOKS in perfbench/tracing.py after a rename"
                )
            self._saved.append((module, attr, target))
            setattr(module, attr, self._wrap(target, span_name))

    def restore(self) -> None:
        while self._saved:
            module, attr, target = self._saved.pop()
            setattr(module, attr, target)

    def take(self) -> Tuple[List[Span], Dict[str, list]]:
        """Spans and kept results recorded since the last take."""
        spans, results = self.spans, self.results
        self.spans, self.results = [], defaultdict(list)
        return spans, results

    def _wrap(self, fn: Callable, name: str) -> Callable:
        stack, clock, keep = self._stack, time.perf_counter, KEEP_RESULTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans[index] = (name, start, end, parent)
            if keep is not None:
                self.results[name].append(keep(result))
            return result

        return traced


def _notes_flag_counts(curve) -> Dict[str, int]:
    counts = {"reseeds": 0, "branch_jumps": 0, "unconverged": 0}
    for note in curve.notes:
        flag = note.partition(": ")[2] if note.startswith("omega=") else ""
        counts["reseeds"] += flag.startswith("reseeded after failure")
        counts["branch_jumps"] += flag.startswith("branch_jump")
        counts["unconverged"] += flag.startswith("unconverged")
    return counts


# Span name -> what to keep of the call's return value.
KEEP_RESULTS: Dict[str, Callable] = {
    "cpa.dos_curve": _notes_flag_counts,
    "linalg.cholesky_psd": lambda result: result[1] > 0,
}


def layer_metrics(
    spans: List[Span], results: Dict[str, list], points: int
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer metrics of one traced invocation (``points``: omega points),
    and the number of calls entering each layer."""
    dur: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)  # duration minus direct children
    calls: Dict[str, int] = defaultdict(int)
    entries: Dict[str, int] = defaultdict(int)
    busy: Dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        d = end - start
        dur[name] += d
        own[name] += d
        calls[name] += 1
        parent_name = spans[parent][0] if parent >= 0 else ""
        own[parent_name] -= d
        layer = name.partition(".")[0]
        if parent_name.partition(".")[0] != layer:
            entries[layer] += 1
            busy[layer] += d

    flags = results["cpa.dos_curve"]
    bz_calls = entries["bzquad"]
    chol = calls["linalg.cholesky_psd"]
    metrics = {
        "bzquad.calls": bz_calls,
        "bzquad.busy_s": busy["bzquad"],
        "bzquad.us_per_call": 1e6 * busy["bzquad"] / bz_calls if bz_calls else 0.0,
        "cpa.calls_per_point": bz_calls / points if points else 0.0,
        "cpa.self_s": own["cpa.dos_curve"] + own["cpa.continuation_sweep"],
        "cpa.sweep_s": dur["cpa.continuation_sweep"],
        "cpa.g_pass_s": dur["cpa.dos_curve"] - dur["cpa.continuation_sweep"],
        "cpa.reseeds": sum(f["reseeds"] for f in flags),
        "cpa.branch_jumps": sum(f["branch_jumps"] for f in flags),
        "cpa.unconverged": sum(f["unconverged"] for f in flags),
        "linalg.cholesky_calls": chol,
        "linalg.cholesky_s": dur["linalg.cholesky_psd"],
        "linalg.shifted_ratio": sum(results["linalg.cholesky_psd"]) / chol if chol else 0.0,
        "linalg.eig_s": dur["linalg.hermitian_eig"],
        "linalg.check_calls": calls["linalg.check_hermitian"],
        "linalg.check_s": dur["linalg.check_hermitian"],
        "ensemble.samples": calls["ensemble.spectrum_X"],
        "ensemble.draw_s": dur["ensemble.draw_sample"],
        "ensemble.spectrum_s": dur["ensemble.spectrum_X"],
        "ensemble.reduce_s": own["ensemble.spectrum_X"],
        "ensemble.bin_s": own["ensemble.mc_dos"],
        "model.assemble_K_s": dur["model.assemble_K"],
        "cli.emit_s": dur["cli.emit_csv"],
        "cli.self_s": own["cli.main"],
    }
    return metrics, dict(entries)
