"""Host-speed calibration: a fixed kernel timed next to every measurement.

On a shared machine other tenants' load makes the same work up to 2.6
times slower, in spells from seconds to minutes.  Process CPU time does not
help: the process is not descheduled, each instruction just takes longer
(measured CPU/wall ratio 0.99).  So run.py times this kernel between timed
invocations and reports their times in reference seconds: wall seconds
scaled by ``REFERENCE_S / kernel seconds``.  When the host runs the kernel
in ``REFERENCE_S``, a reference second is a wall second.

The kernel mixes the kinds of work the workloads do: interpreted Python,
numpy calls on 16 x 16 matrices (dispatch overhead), numpy arithmetic on
an array of 32768 elements and LAPACK eigensolves of 64 x 64 matrices.  Its
code and inputs are fixed, and it runs no code of the package, so it takes
the same time at every revision of the package.

Set-up time is another kind of work: cold code in a fresh interpreter,
which the host's slow spells hit harder than the warm kernel (set-up
probes moved 60% between runs while the kernel moved 10%).  So each set-up
probe sits between two fresh interpreters that import numpy alone, and its
seconds are scaled by ``REFERENCE_IMPORT_S / numpy import seconds``.  numpy
is not part of the package and is the same at every revision.
"""

import time

import numpy as np

# About the wall seconds of kernel_s() on a quiet 2-vCPU Intel Xeon VM
# (numpy 2.4, scipy-openblas 0.3.31, one BLAS thread).  Fixed: it only sets
# the scale.
REFERENCE_S = 0.025
# Seconds a fresh interpreter there spends importing numpy (probe.py numpy).
REFERENCE_IMPORT_S = 0.10

# Every array the kernel allocates is under 64 KiB, and the large one is
# worked in place.  glibc serves larger blocks by mmap until the program
# frees one, then raises its mmap threshold: a kernel that allocated them
# would run up to 18% faster after a workload that had used big arrays.
_rng = np.random.default_rng(20101)
_VEC = _rng.standard_normal(1 << 15)
_BUF = np.empty_like(_VEC)
_MAT = _rng.standard_normal((64, 64))
_MAT = _MAT + _MAT.T
_SMALL = _MAT[:16, :16].copy()


def _python() -> int:
    total, table = 0, {}
    for i in range(40000):
        total += (i * i) % 7
        table[i & 255] = total
    return total


def _small() -> float:
    total = 0.0
    for k in range(200):
        total += np.linalg.eigvalsh(_SMALL + k)[0]
        total += np.dot(_SMALL, _SMALL).sum() + np.dot(_SMALL.T, _SMALL).sum()
    return total


def _arrays() -> float:
    x = _BUF
    np.copyto(x, _VEC)
    for _ in range(36):
        np.multiply(x, 1.0001, out=x)
        np.add(x, 0.5, out=x)
        np.abs(x, out=x)
        np.sqrt(x, out=x)
    return float(x.sum())


def _lapack() -> float:
    return float(sum(np.linalg.eigvalsh(_MAT + k)[0] for k in range(24)))


def kernel_s(at_least: float = 0.0) -> float:
    """Mean wall seconds of one run of the calibration kernel, run once and
    then again until ``at_least`` seconds have passed."""
    runs, start = 0, time.perf_counter()
    while True:
        _python()
        _small()
        _arrays()
        _lapack()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= at_least:
            return elapsed / runs
