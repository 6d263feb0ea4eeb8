"""Host-speed probes: fixed pieces of work that do not touch qgl.

The benchmark's host is a few cores of a shared machine whose speed drifts:
the same call on the same input took from 1.5 s to 3 s within minutes, with
CPU time tracking wall time, because neighbours slow the core itself.  Each
probe does the kind of work the timing it scales spends its time on:

- `probe`: small complex LAPACK calls (eigenvalues, SVD, Schur forms,
  determinants, inverses) driven from a Python loop, like qgl's calls;
- `startup_probe`: a fresh interpreter importing a fixed set of
  standard-library modules, like the set-up's start and imports.

The benchmark runs a probe right before and right after every timing and
divides the timing by the mean of the two; see `run.py` and the README,
section "Host-speed scaling".  The probes' inputs are fixed, so a change to
qgl cannot change their time.
"""
from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import scipy.linalg

# Scaled timings read as if every probe had taken exactly this long.  These
# only set the scale; each is near the median time of its probe on the host
# the baseline was measured on (2 vCPUs, Intel Xeon, shared VM, BLAS on one
# thread).
REFERENCE_S = 0.2            # probe
STARTUP_REFERENCE_S = 0.17   # startup_probe

_REPEATS = 30


def _matrices() -> list[np.ndarray]:
    rng = np.random.default_rng(20101003)
    return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in (4, 6, 6, 8, 12, 14, 30, 30)]


_MATRICES = _matrices()


def probe() -> float:
    """Wall seconds of the fixed work."""
    t0 = time.perf_counter()
    acc = 0j
    for _ in range(_REPEATS):
        for m in _MATRICES:
            acc += np.linalg.eigvals(m).sum()
            acc += np.linalg.svd(m, compute_uv=False).sum()
            acc += scipy.linalg.schur(m, output="complex")[0][0, 0]
            acc += np.linalg.det(m) + np.linalg.inv(m)[0, 0]
            for i in range(len(m)):
                acc += complex(m[i, i]) * (i % 3 - 1)
    if not np.isfinite(acc):
        raise ArithmeticError("probe arithmetic went non-finite")
    return time.perf_counter() - t0


_STARTUP_CODE = ("import argparse, asyncio, concurrent.futures, csv, ctypes, decimal, "
                 "email.parser, http.client, json, logging, multiprocessing, "
                 "sqlite3, tarfile, unittest, xml.dom.minidom, zipfile")


def startup_probe() -> float:
    """Wall seconds of a fresh interpreter running the fixed imports; -B
    keeps it from writing bytecode outside the checkout."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-B", "-c", _STARTUP_CODE], check=True)
    return time.perf_counter() - t0
