"""Fresh-interpreter probe, run by run.py.

Prints the seconds this interpreter spent importing ``bosondos.cli`` and
building one workload's inputs (the CLI argument list).  Given an output
path, it then runs the workload once and also prints its peak resident
memory in MB: ``VmHWM``, the high-water mark of this program's own address
space.  ``ru_maxrss`` would not do: it keeps the parent's peak across the
fork and exec that started this interpreter.  BLAS is pinned to one
thread, as in run.py.

    python3 perfbench/probe.py <workload> <seed> [<output csv>]
    python3 perfbench/probe.py numpy

The second form prints the seconds this interpreter spent importing numpy
alone: the set-up time's calibration (see calibration.py).
"""

import time

start = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if sys.argv[1] == "numpy":
    import numpy  # noqa: E402,F401

    print(time.perf_counter() - start)
    sys.exit(0)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import bosondos.cli  # noqa: E402

imported = time.perf_counter() - start

import contextlib  # noqa: E402  (the benchmark's own code, not timed)
import io  # noqa: E402

import workloads  # noqa: E402

out = sys.argv[3] if len(sys.argv) > 3 else None
start = time.perf_counter()
argv = workloads.WORKLOADS[sys.argv[1]].argv(int(sys.argv[2]), out or "probe.csv")
setup_s = imported + time.perf_counter() - start
if out is None:
    print(setup_s)
    sys.exit(0)
with contextlib.redirect_stdout(io.StringIO()):
    status = bosondos.cli.main(argv)
if status != 0:
    sys.exit(f"exit status {status}")
with open("/proc/self/status", encoding="ascii") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(setup_s, peak_kb / 1024.0)
