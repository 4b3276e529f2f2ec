"""Benchmark of the rnsckks library, run from the root of a checkout:

    python3 perfbench/run.py --workload scheme-mix --seed 1 --seconds 20 --trace 0

One process, one thread.  `--trace 0` reports the end-to-end metrics;
`--trace 1` reports the per-layer metrics from a run whose second half
is traced, plus the cost-model cross-check.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import os

# Single-threaded: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import machine  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def import_library():
    """Import rnsckks from this checkout's sources, and only from there."""
    if not (SRC / "rnsckks" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {SRC / 'rnsckks'}")
    sys.path.insert(0, str(SRC))
    import rnsckks
    if Path(rnsckks.__file__).resolve().parent != SRC / "rnsckks":
        sys.exit(f"perfbench: imported rnsckks from {rnsckks.__file__}, "
                 f"not from {SRC}")
    return rnsckks


class Units:
    """Outcome of a stretch of units: times (at the reference speed, and
    as measured), worst errors, failures."""

    def __init__(self):
        self.seconds: list[float] = []
        self.wall: list[float] = []
        self.worst: list[float] = []
        self.failed = 0
        self.counts: dict[str, float] = {}

    @property
    def attempted(self) -> int:
        return len(self.seconds) + self.failed


def run_units(workload, state, seconds: float, first: int,
              tracer=None) -> Units:
    """Closed loop: start units until `seconds` have passed; the unit
    running at the deadline finishes.  Only `workload.run` is timed (and
    traced)."""
    out = Units()
    clock = machine.SpeedClock()
    deadline = time.perf_counter() + seconds
    i = first
    while i == first or time.perf_counter() < deadline:
        try:
            inp = workload.prepare(state, i)
            t0 = time.perf_counter()
            with tracer.span("unit") if tracer else nullcontext():
                res = workload.run(state, inp)
            dt = time.perf_counter() - t0
            scaled = clock.scaled(dt)
            check = workload.check(state, inp, res)
        except Exception:
            # A unit that raises counts as failed; the run goes on.
            traceback.print_exc()
            out.failed += 1
        else:
            if check.failures:
                print(f"unit {i} failed: {'; '.join(check.failures)}",
                      file=sys.stderr)
                out.failed += 1
            else:
                out.seconds.append(scaled)
                out.wall.append(dt)
            out.worst.append(check.worst)
            for k, v in check.counts.items():
                out.counts[k] = out.counts.get(k, 0) + v
        i += 1
    checked = len(out.worst)
    out.counts = {k: v / checked for k, v in out.counts.items()}
    return out


def fmt(times: list[float]) -> str:
    return " ".join(f"{t:.3f}" for t in times)


def precision_bits(worst: list[float]) -> float:
    return -math.log2(max(max(worst), 2.0 ** -64))


def timed_setups(workload) -> tuple[object, list[float], list[float]]:
    """Set up `setup_reps` times; times at the reference speed and wall."""
    scaled, wall = [], []
    clock = machine.SpeedClock()
    state = None
    for _ in range(workload.setup_reps):
        state = None            # release the previous set-up first
        t0 = time.perf_counter()
        state = workload.setup()
        wall.append(time.perf_counter() - t0)
        scaled.append(clock.scaled(wall[-1]))
    return state, scaled, wall


def plain_run(workload, seconds: float) -> tuple[Units, dict, list]:
    state, setups, setup_wall = timed_setups(workload)
    units = run_units(workload, state, seconds, 0)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "unit_s_p50": (statistics.median(units.seconds), "s")
        if units.seconds else (0.0, "s"),
        "precision_bits": (precision_bits(units.worst), "bits")
        if units.worst else (0.0, "bits"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    lines = [f"setup_s: {fmt(setups)} (wall {fmt(setup_wall)})",
             f"unit_s: n={len(units.seconds)} {fmt(units.seconds)}",
             f"unit_wall_s: {fmt(units.wall)}",
             f"fail_frac: {units.failed}/{units.attempted}"]
    return units, metrics, lines


def traced_run(workload, seconds: float) -> tuple[Units, dict, list]:
    """Traced set-up, then untraced units for half the time, then traced
    units for the other half; the two halves give the overhead."""
    import layers
    from spans import Tracer

    tracer = Tracer()
    with tracer.installed(layers.LABELS, layers.owners()):
        with tracer.span("setup"):
            state = workload.setup()
    plain = run_units(workload, state, seconds / 2, 0)
    with tracer.installed(layers.LABELS, layers.owners()):
        traced = run_units(workload, state, seconds / 2, plain.attempted,
                           tracer=tracer)
    if not plain.seconds or not traced.seconds:
        raise RuntimeError("no unit passed; nothing to trace")
    overhead = statistics.median(traced.seconds) \
        / statistics.median(plain.seconds) - 1
    values, table = layers.per_layer_metrics(
        tracer, len(traced.seconds), traced.counts, workload, state,
        overhead)
    units_of = layers.per_layer_units()
    metrics = {k: (values[k], units_of[k]) for k in units_of}

    both = Units()
    both.seconds = plain.seconds + traced.seconds
    both.failed = plain.failed + traced.failed
    lines = [f"untraced unit_s: {fmt(plain.seconds)}",
             f"traced unit_s: {fmt(traced.seconds)}",
             f"spans kept: {len(tracer.spans)}",
             f"fail_frac: {both.failed}/{both.attempted}",
             "model-vs-measured (cost model at the desk profile):",
             f"  {'count':44} {'measured':>10} {'model':>10} {'ratio':>8}"]
    for name, measured, model, ratio in table:
        lines.append(f"  {name:44} {measured:10.2f} {model:10.2f} "
                     f"{ratio:8.3f}")
        if name.startswith("ckks.hrescale") and ratio != 1.0:
            lv = int(name.split(".")[2][1:])
            lines.append(f"  finding: hrescale at L{lv} runs 2l+1 = "
                         f"{2 * lv + 1} limb transforms per polynomial "
                         f"({measured:g} per call); rescale_mults counts "
                         f"l+1 = {lv + 1}")
    return both, metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    steal0 = machine.steal_ticks()
    workload = WORKLOADS[args.workload](args.seed)
    run = traced_run if args.trace else plain_run
    units, metrics, lines = run(workload, args.seconds)

    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("machine " + json.dumps(machine.facts(steal0)))
    print(json.dumps({
        "correct": units.failed == 0,
        "attempted": units.attempted,
        "failed": units.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
