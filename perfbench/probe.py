"""Machine-speed probe: a sidecar process that runs a fixed kernel at a low
duty cycle and logs how much CPU time each pass took.

    python3 perfbench/probe.py LOGFILE PID

The host's speed drifts by about +-10-20% over seconds to tens of seconds
(other tenants share the cores), and each core drifts partly on its own
(3-second medians of two probes pinned to different cores differ by up to
+-13%). So before each pass the probe moves itself to the core on which
process PID last ran, and measures the speed the benchmark sees there.
Each log line is "<perf_counter at mid-pass> <thread CPU s>"; CPU time
rather than wall time keeps the probe blind to time slicing, since it
shares the core with the benchmark. The kernel mixes small LAPACK calls with Python-level
work, as negmono's hot paths do, and uses numpy only, so no change to
negmono moves it. The process runs until it is terminated.
"""

from __future__ import annotations

import bisect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PERIOD_S = 0.1   # one pass (about 4 ms) per period: about 4% of one core


def _matrices():
    out = []
    for i, n in enumerate((4, 4, 4, 16)):
        rng = np.random.default_rng(i)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out.append((a + a.conj().T) / 2.0)
    return out


def kernel(mats) -> float:
    acc = 0.0
    for i in range(100):
        h = mats[i % 4]
        if h.shape[0] > 4:
            w, v = np.linalg.eigh(h)
            acc += float(np.abs(v @ v.conj().T).max())
        else:
            w = np.linalg.eigvalsh(h)
        acc += float(np.sum(np.clip(-w, 0.0, None)))
        acc += len(json.dumps({"i": i, "w": [i, i + 1]}))
    return acc


class Probe:
    """Runs this file as a sidecar for the duration of a `with` block and
    answers the mean probe CPU time per pass over any interval of it."""

    def __init__(self, log: Path):
        self.log = log
        self.times: list[float] = []
        self.cpu: list[float] = []

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                                      str(self.log), str(os.getpid())])
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline and not (
                self.log.exists() and self.log.stat().st_size > 0):
            time.sleep(0.02)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.wait()
        with open(self.log, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2:
                    self.times.append(float(parts[0]))
                    self.cpu.append(float(parts[1]))

    def mean_cpu(self, start: float, end: float) -> float:
        """Mean pass time of the passes centred in [start, end], or of the
        nearest pass when none is."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi > lo:
            return sum(self.cpu[lo:hi]) / (hi - lo)
        near = min(max(lo, 0), len(self.times) - 1)
        return self.cpu[near]


def _last_cpu(pid: int) -> int | None:
    """Core on which pid last ran (field 39 of /proc/PID/stat)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return int(fields[36])


def main(path: str, pid: int) -> None:
    mats = _matrices()
    kernel(mats)
    with open(path, "w", encoding="utf-8", buffering=1) as log:
        while True:
            cpu = _last_cpu(pid)
            if cpu is not None and os.sched_getaffinity(0) != {cpu}:
                os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            c0 = time.thread_time()
            kernel(mats)
            used = time.thread_time() - c0
            log.write(f"{0.5 * (start + time.perf_counter())!r} {used!r}\n")
            time.sleep(max(0.0, PERIOD_S - (time.perf_counter() - start)))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
