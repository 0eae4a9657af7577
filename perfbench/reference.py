"""Fixed reference jobs that measure how fast the host is running right now.

The benchmark runs on a few shared cores whose speed drifts by tens of
percent over seconds to minutes. Each timed op is bracketed by a reference
job of the same kind of work as the workload, and times are rescaled by
``NOMINAL_S[kind] / reference time`` (see ``run.py``), so drift that the
ops and the reference jobs around them share cancels.

The jobs use only the standard library and numpy, never ``cvqkd``, so a
change to the program cannot change what a reference does. The collector is
off while one runs, so the program's heap does not change its time.
"""

from __future__ import annotations

import csv
import gc
import io
import time

# interpreter-bound: format float rows through csv, as the records writer and reader do
PY_ROWS = 40_000
# numpy-bound: Philox draws, a mask per ratio and a variance each, as the samplers do
NP_SLOTS = 2_000_000
NP_BLOCK = 500_000
# the jobs' shortest times on the shared 2-vCPU Xeon host (2.1 GHz, Python 3.11,
# numpy 2.4) the benchmark was written on; they only fix the unit of a rescaled time
# "import" is a bare `import numpy` in a fresh process, timed by child.py
NOMINAL_S = {"python": 0.175, "numpy": 0.066, "import": 0.1}


def _python_job() -> None:
    values = [i * 1.000123 + 0.5 for i in range(PY_ROWS)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    for i, v in enumerate(values):
        writer.writerow([i, "X" if i & 1 else "P", repr(v), repr(v * 0.731), repr(-v)])
    buf.seek(0)
    total = 0.0
    for row in csv.reader(buf):
        total += float(row[2]) + float(row[4])
    if total != 0.0:  # every row's two floats cancel; a wrong job must not pass unnoticed
        raise AssertionError(f"python reference job summed to {total!r}, not 0")


def _numpy_job() -> None:
    import numpy as np
    gen = np.random.Generator(np.random.Philox(12345))
    # in blocks, so the job's arrays (about 15 MB) never set the process's peak RSS
    for _ in range(NP_SLOTS // NP_BLOCK):
        y = gen.standard_normal(NP_BLOCK)
        ratio = np.where(gen.random(NP_BLOCK) < 0.9, 1.0, 0.5)
        for r in (0.5, 1.0):
            float(np.var(y[ratio == r], ddof=1))


JOBS = {"python": _python_job, "numpy": _numpy_job}


def run(kind: str) -> float:
    """Wall time of one reference job of ``kind``."""
    job = JOBS[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        job()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
