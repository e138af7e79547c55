"""Benchmark of the bosondos CLI, one workload per run.

    python3 perfbench/run.py --workload cpa-d1 --seed 0 --seconds 10 --trace 0

Runs ``bosondos.cli.main`` in this process as a closed loop: one invocation
at a time, the next starting when the previous returns, for ``--seconds``
after one untimed warm-up invocation.  BLAS is pinned to one thread.  Times
are reported in reference seconds (calibration.py).  Every
output file is checked (see workloads.py).  The last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full record, with the run's provenance, goes to
``.perfbench-out/BENCH_<workload>_seed<seed>_trace<trace>.json``.
"""

import os

BLAS_THREADS = 1
# Must precede the first numpy import, which starts the BLAS thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
from tracing import PER_LAYER_UNITS, HookError, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_output  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 9  # timed fresh interpreters per run, after one untimed
WARMUP_UNITS = 2  # size of the untimed warm-up invocation
MIN_TIMED = 3  # timed invocations per run, however long they take
# The calibration kernel runs between invocations for this share of the
# wall time of the invocation before (at least once), so that long
# invocations are calibrated over more than one short sample.
CALIBRATION_SHARE = 0.05


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def import_package():
    if not (SRC / "bosondos" / "cli.py").is_file():
        raise BenchError(f"no bosondos sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bosondos.cli

    if SRC not in Path(bosondos.cli.__file__).resolve().parents:
        raise BenchError(f"imported bosondos from {bosondos.cli.__file__}, not {SRC}")
    return bosondos.cli


def _probe(argv) -> list:
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise BenchError(f"probe {argv[2:]} failed:\n{done.stderr}")
    return [float(tok) for tok in done.stdout.split()]


def probe_fresh(wl, seed: int):
    """Fresh interpreters running probe.py.  The first imports the package
    and runs the workload once; it gives the peak RSS in MB and loads the
    files into the page cache.  Then SETUP_REPEATS timed probes import the
    package and build the inputs, each between two that import numpy alone.
    Returns (peak RSS, [(set-up seconds, numpy import seconds around it)])."""
    probe = [sys.executable, str(HERE / "probe.py")]
    argv = probe + [wl.name, str(seed)]
    rss_mb = _probe(argv + [str(OUT / f"{wl.name}_probe.csv")])[1]
    samples = []
    numpy_s = _probe(probe + ["numpy"])[0]
    for _ in range(SETUP_REPEATS):
        seconds = _probe(argv)[0]
        after = _probe(probe + ["numpy"])[0]
        samples.append((seconds, (numpy_s + after) / 2))
        numpy_s = after
    return rss_mb, samples


def invoke(cli, wl, seed: int, out: Path, tracer=None) -> dict:
    """One CLI invocation, timed, with its output checked."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = cli.main(wl.argv(seed, str(out)))
    except Exception:  # a crashing invocation fails its units; the run goes on
        status = "raised"
        print(traceback.format_exc(), file=stderr)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    if status == 0:
        failed, problems = check_output(wl, seed, out)
    else:
        failed, problems = wl.size, [f"exit status {status}: {stderr.getvalue()[-2000:]}"]
    return {"wall_s": wall, "failed": failed, "problems": problems,
            "traced": tracer is not None}


def run_loop(cli, wl, seed: int, seconds: float, trace: bool):
    """Closed loop after an untimed warm-up invocation of WARMUP_UNITS units,
    which fills the package's caches.  It starts no invocation that the last
    one's wall time says would end past ``seconds``, once MIN_TIMED are
    done.  The calibration kernel runs between invocations.  With ``trace``
    every other invocation is traced.  Returns (records, spans per traced
    one)."""
    out = OUT / f"{wl.name}.csv"
    warmup = invoke(cli, replace(wl, size=min(wl.size, WARMUP_UNITS)), seed, out)
    tracer = Tracer() if trace else None
    records, spans = [], []
    start = time.perf_counter()
    # Before the first invocation, its wall time is guessed from the warm-up's.
    guess = warmup["wall_s"] * wl.size / min(wl.size, WARMUP_UNITS)
    kernel = calibration.kernel_s(CALIBRATION_SHARE * guess)
    while True:
        traced = trace and len(records) % 2 == 1
        rec = invoke(cli, wl, seed, out, tracer if traced else None)
        after = calibration.kernel_s(CALIBRATION_SHARE * rec["wall_s"])
        rec["kernel_s"] = (kernel + after) / 2
        kernel = after
        if traced:
            taken, results = tracer.take()
            points = wl.size if wl.mode == "cpa-dos" else 0
            rec["layers"], entries = layer_metrics(taken, results, points)
            idle = [layer for layer in wl.layers if not entries.get(layer)]
            if idle:
                raise BenchError(
                    f"layers {idle} recorded no calls on {wl.name}: a hooked "
                    "function is no longer on the call path; update HOOKS"
                )
            spans.append(taken)
        records.append(rec)
        elapsed = time.perf_counter() - start
        if len(records) >= MIN_TIMED and elapsed + rec["wall_s"] > seconds:
            return records, spans


def reference_s(seconds: float, kernel_s: float, reference: float = calibration.REFERENCE_S):
    """Wall seconds scaled to the host speed at which the calibration takes
    ``reference`` seconds."""
    return seconds * reference / kernel_s


def end_to_end(wl, records, setup, rss_mb, attempted, failed) -> dict:
    """Throughput and set-up time are medians over the run, in reference
    seconds (calibration.py)."""
    return {
        "units_per_s": statistics.median(
            (wl.size - r["failed"]) / reference_s(r["wall_s"], r["kernel_s"]) for r in records
        ),
        "setup_s": statistics.median(
            reference_s(s, n, calibration.REFERENCE_IMPORT_S) for s, n in setup
        ),
        "peak_rss_mb": rss_mb,
        "success_rate": 1.0 - failed / attempted,
    }


def per_layer(records) -> dict:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain)
    )
    return metrics


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it is not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.partition(":")[2].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    try:
        top, _, rev = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        ).stdout.strip().partition("\n")
    except (OSError, subprocess.SubprocessError):
        top, rev = "", ""
    if not top or Path(top).resolve() != ROOT:
        rev = None  # not a git checkout of its own; the source digest still identifies it
    digest = hashlib.sha256()
    for path in sorted((SRC / "bosondos").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
        "python": platform.python_version(),
        "git_revision": rev,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    cli = import_package()
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    label = f"{wl.name}_seed{args.seed}_trace{args.trace}"

    rss_mb, setup = (None, []) if args.trace else probe_fresh(wl, args.seed)
    records, spans = run_loop(cli, wl, args.seed, args.seconds, bool(args.trace))
    if spans:
        with open(OUT / f"spans_{label}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "invocations": spans}, fh)
    attempted = wl.size * len(records)
    failed = sum(r["failed"] for r in records)
    if args.trace:
        values = per_layer(records)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(wl, records, setup, rss_mb, attempted, failed)
        units = {"units_per_s": "units/s", "setup_s": "s", "peak_rss_mb": "MB",
                 "success_rate": "ratio"}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": wl.name,
        "argv": wl.argv(args.seed, "<out>"),
        "unit": wl.unit,
        "units_per_invocation": wl.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "error_rate": failed / attempted,
        "calibration_reference_s": calibration.REFERENCE_S,
        "calibration_reference_import_s": calibration.REFERENCE_IMPORT_S,
        "setup_samples": [{"wall_s": s, "numpy_import_s": n} for s, n in setup],
        "units_per_wall_s": statistics.median(
            (wl.size - r["failed"]) / r["wall_s"] for r in records
        ),
        "metrics": metrics,
        "invocations": [
            {k: v for k, v in r.items() if k != "layers"} for r in records
        ],
    }
    with open(OUT / f"BENCH_{label}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for r in records:
        for problem in r["problems"][:1]:
            print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, HookError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
