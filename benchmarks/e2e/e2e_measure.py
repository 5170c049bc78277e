"""Clocks, the calibration kernel and the estimator of the end-to-end ledger.

The box this runs on is a shared 2-vCPU VM: raw wall time of identical code
drifts by 30–40 % between back-to-back runs, in phases that last from seconds
to minutes.  Every timing is therefore cut into slices of under a second,
each followed by one pass of a fixed calibration kernel that the same phase
slows too, and reported as

    CAL_REF_S × q1(slice time / time of the calibration pass after it)

— the time the slice would take on the reference machine on which one
calibration pass takes ``CAL_REF_S``.  The ratio is taken per slice so that
both times come from the same phase; the lower quartile of the ratios,
because a disturbance shorter than a slice mostly lands on the (longer)
slice and only ever adds time.  README.md has the study that chose it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from typing import Callable, Dict, Sequence, Tuple

# One calibration pass on the reference machine: this VM in its usual state
# when the benchmark was defined (median over 40 passes; README.md, "Noise study").
CAL_REF_S = 0.2000

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class Calibrator:
    """The fixed calibration kernel: interpreter, BLAS and memory-bound parts.

    A dict/arithmetic loop with small-array numpy calls (what the simulator
    workloads look like to the CPU), 256² float32 GEMMs, and an
    elementwise/reduce pass over a conv-sized tensor (what ``train_fused``
    looks like).  Sizes are constants: changing them changes ``CAL_REF_S``
    and invalidates every recorded number.
    """

    PY_ITERS = 416_000
    GEMMS = 176
    MEM_PASSES = 45

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._small = np.arange(8, dtype=np.float64)
        self._a = rng.standard_normal((256, 256)).astype(np.float32)
        self._b = rng.standard_normal((256, 256)).astype(np.float32)
        self._conv = rng.standard_normal((64, 16, 32, 32)).astype(np.float32)
        self.sink = 0.0

    def run(self) -> float:
        """One pass; returns its wall time in seconds."""
        np = self._np
        started = time.perf_counter()
        table: Dict[int, int] = {}
        acc = 0
        small = self._small
        for i in range(self.PY_ITERS):
            key = i & 1023
            value = table.get(key, 0) + (i * 3) % 7
            table[key] = value
            acc += value
            if not i & 63:
                acc += int(np.add(small, i).sum())
        a, b = self._a, self._b
        for _ in range(self.GEMMS):
            c = a @ b
        total = float(c[0, 0])
        conv = self._conv
        for _ in range(self.MEM_PASSES):
            total += float(np.maximum(conv * 1.01 + 0.5, 0.0).sum())
        self.sink = acc + total  # keep the work observable
        return time.perf_counter() - started


def q1(values: Sequence[float]) -> float:
    """Lower quartile (``statistics.quantiles`` needs two points)."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=4)[0]


def reference_seconds(slices: Sequence[float], cals: Sequence[float]) -> float:
    """The one estimator for ``wall_s`` and ``setup_s`` (see module docstring)."""
    return CAL_REF_S * q1([s / c for s, c in zip(slices, cals)])


def timed_capture(fn: Callable[[], object]) -> Tuple[float, str, object]:
    """Run ``fn`` with stdout captured; returns (seconds, stdout, result)."""
    buffer = io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(buffer):
        result = fn()
    return time.perf_counter() - started, buffer.getvalue(), result


def digest(stdout: str, tmp: str) -> str:
    """sha256 of a printed report with the scratch directory masked."""
    return hashlib.sha256(stdout.replace(tmp, "<tmp>").encode()).hexdigest()


def count_calls(fn: Callable[[], object]) -> Tuple[int, object]:
    """Python + C function calls made while ``fn`` runs (``sys.setprofile``).

    A count, not a speed: it repeats exactly across processes for the same
    input, omits time inside numpy kernels, and the profiler's own callback
    is not counted.
    """
    calls = 0

    def on_event(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(on_event)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return calls, result


def probe(
    script: str, mode: str, workload: str, seed: int, scale: float, tmp: str
) -> Tuple[float, dict]:
    """Run ``script --probe mode`` in a fresh interpreter; wait for it to end.

    Returns the child's lifetime in seconds (spawn to exit) and the JSON
    object on its last stdout line (``{}`` when it printed none, as the
    set-up probe does: it leaves with ``os._exit`` at the run loop's door).
    """
    argv = [
        sys.executable, script, "--probe", mode, "--workload", workload,
        "--seed", str(seed), "--scale", repr(scale), "--tmp", tmp,
    ]  # fmt: skip
    env = dict(os.environ, **THREAD_ENV)
    started = time.perf_counter()
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(f"{mode} probe exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    payload = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return elapsed, payload
