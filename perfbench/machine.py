"""Facts about the machine a run saw, read-only, so that run-to-run spread
can be explained rather than guessed."""

from __future__ import annotations

import os
import platform
import threading
import time

import numpy as np

# Median time of `reference_seconds` on the 2-vCPU Xeon VM the benchmark
# was tuned on (Python 3.11, numpy 2.4).  Timings are reported in seconds
# at this speed.  Changing the constant or the kernel rescales every time
# metric, so a change that does must not be compared with older runs.
REFERENCE_S = 0.0135

_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _reference_kernel() -> float:
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2 ** 62, (4, 8192), dtype=np.uint64)
    b = rng.integers(0, 2 ** 62, 8192, dtype=np.uint64)
    t0 = time.perf_counter()
    with np.errstate(over="ignore"):
        for _ in range(40):
            a0, a1, b0, b1 = a & _M32, a >> _S32, b & _M32, b >> _S32
            mid = ((a0 * b0) >> _S32) + ((a0 * b1) & _M32) \
                + ((a1 * b0) & _M32)
            a = a1 * b1 + ((a0 * b1) >> _S32) + ((a1 * b0) >> _S32) \
                + (mid >> _S32)
            a = np.minimum(a, a - b)[:, ::-1].copy()
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Median of three runs of a frozen numpy kernel shaped like the
    library's hot loop: high words of 64x64-bit products over (4, 8192)
    uint64 rows.  It shares no code with the library, so a library change
    cannot move it; only the machine's speed can."""
    return sorted(_reference_kernel() for _ in range(3))[1]


class SpeedClock:
    """Rescales wall times to seconds at the reference speed.

    The host this runs on drifts by a third in speed over minutes, and the
    drift slows the library and the reference kernel alike.  Each region is
    scaled by REFERENCE_S over the mean of the kernel timed just before and
    just after it.
    """

    def __init__(self):
        self.before = reference_seconds()

    def scaled(self, wall: float) -> float:
        after = reference_seconds()
        factor = REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        return wall * factor


def steal_ticks() -> int | None:
    """Cumulative steal time of all CPUs, in clock ticks (/proc/stat)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _os_threads() -> int | None:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def facts(steal_before: int | None) -> dict:
    steal_after = steal_ticks()
    delta = None if steal_before is None or steal_after is None \
        else steal_after - steal_before
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads_os": _os_threads(),
        "threads_python": threading.active_count(),
        "steal_ticks": delta,
        "steal_s": None if delta is None
        else delta / os.sysconf("SC_CLK_TCK"),
    }
