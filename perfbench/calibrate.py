"""Host-speed calibration: how fast the shared host runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
a third from one half-minute to the next, for reasons outside the
container: a fixed single-threaded loop averaged 39-60 ms per pass over
5-second windows of one 150-second run on a 2-vCPU host.  Over ten
30-second runs that drift, not the program, sets the spread of any raw
wall time.

A :class:`Calibrator` keeps two forked processes, one per worker the
workloads run, that time a fixed reference workload on command.  The
reference workload is the benchmark's own code, never the simulator's:
a program change cannot move it.  ``run.py`` samples it before every
batch and after the last one, and scales the run's times by
:data:`REFERENCE_UNIT_S` over the mean unit time of the run.  The
scaled time is what the batch would have taken on a host that runs the
unit in :data:`REFERENCE_UNIT_S`.  A single sample is as noisy as a
single batch; the run-wide mean follows the slow drift, which is what
sets the spread between runs.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

#: Processes timing the unit at once: the workers each workload runs.
PROCESSES = 2
#: Units each process times per sample (about 1.2 s on a 2-vCPU host).
UNITS_PER_SAMPLE = 48
#: Seconds per unit on the reference host; times are scaled to it.
REFERENCE_UNIT_S = 0.025
#: A sample that takes longer than this means a calibration process died.
SAMPLE_TIMEOUT_S = 60.0


def unit() -> int:
    """One pass of the reference workload.

    It mixes the two kinds of work the simulator's engines do: dict and
    list churn in the interpreter (the object engines) and small-array
    numpy calls (the vectorized engine).
    """
    table: dict[int, int] = {}
    window: list[tuple[int, int]] = []
    for i in range(40000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        window.append((key, i))
        if len(window) > 64:
            window.pop(0)
    state = np.arange(512, dtype=np.int64)
    for i in range(600):
        hits = np.flatnonzero((state + i) % 7 == 0)
        order = np.argsort(state[hits] ^ i, kind="stable")
        state[hits[order[:4]]] += 1
    return len(table) + int(state[0])


def _serve(conn) -> None:
    """Calibration process: time ``n`` units per request until told to stop."""
    unit()  # warm-up: first-call costs are not host speed
    while True:
        n = conn.recv()
        if n is None:
            break
        start = time.perf_counter()
        for _ in range(n):
            unit()
        conn.send((time.perf_counter() - start) / n)
    conn.close()


class Calibrator:
    """Two calibration processes, sampled together.

    Use as a context manager; leaving it stops and reaps both processes
    on every path out.
    """

    def __init__(self) -> None:
        self._procs: list = []
        self._conns: list = []

    def __enter__(self) -> "Calibrator":
        ctx = multiprocessing.get_context("fork")
        for _ in range(PROCESSES):
            here, there = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(there,), daemon=True)
            proc.start()
            there.close()
            self._procs.append(proc)
            self._conns.append(here)
        return self

    def sample(self) -> float:
        """Seconds per unit, mean over the processes timing it at once."""
        for conn in self._conns:
            conn.send(UNITS_PER_SAMPLE)
        times = []
        for conn in self._conns:
            if not conn.poll(SAMPLE_TIMEOUT_S):
                raise RuntimeError("a calibration process stopped answering")
            times.append(conn.recv())
        return sum(times) / len(times)

    def __exit__(self, *exc) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join()
        for conn in self._conns:
            conn.close()
