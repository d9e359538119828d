"""Benchmark of the mini-LEAN compiler and its VM.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli|compile|exec|fuzz \\
        --seed N --seconds S --trace 0|1

With ``--trace 0`` the run sets up (several times, reporting the median),
then repeats whole passes over the workload's inputs until ``--seconds``
have been measured, and reports the end-to-end metrics.  Their times are
scaled to a reference host speed by a calibration kernel timed throughout
the run (see ``Clock``).  With ``--trace 1``
it runs the traced split instead and reports the per-layer metrics.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the host
block.  The full record (host, seed, per-item times, failures) is written
under ``perfbench/.work/results/``, and the traced run's spans under
``perfbench/.work/traces/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The end-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "ops_per_s": "1/s",
    "suite_s": "s",
    "peak_rss_mb": "MB",
    "cfg_ops": "count",
}


#: What the calibration kernel takes on an uncontended reference host
#: (2-core container, Python 3.11, 2.1 GHz).
REFERENCE_KERNEL_S = 0.010
#: Fewest seconds between two calibration samples.
CALIBRATE_EVERY_S = 0.25


def kernel_seconds() -> float:
    """Time a fixed pure-Python kernel of dict, tuple and string work.

    The collector is off meanwhile: a collection would cost in proportion
    to the workload's live heap, not to the host's speed.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        items = []
        for index in range(30_000):
            key = index & 1023
            table[key] = table.get(key, 0) + index
            items.append((key, str(index)))
            if len(items) > 4096:
                items = []
        return time.perf_counter() - start
    finally:
        gc.enable()


class Clock:
    """Scales measured times to the reference host's speed.

    Other tenants of the host cut its speed by up to half, switching
    within a second and lasting minutes; the slowdown hits the kernel as it
    hits the compiler.  The kernel is sampled when a window of work opens
    and closes and every ``CALIBRATE_EVERY_S`` between its operations
    (never inside one), and the window's times are multiplied by
    ``REFERENCE_KERNEL_S`` over the mean sample: the mean, because an
    operation's time sums the host's speed over its whole duration.  The
    raw times stay in the run's record.
    """

    def __init__(self):
        self.samples: list = []
        self.window: list = []
        self.last = 0.0

    def sample(self) -> None:
        seconds = kernel_seconds()
        self.samples.append(seconds)
        self.window.append(seconds)
        self.last = time.perf_counter()

    def open_window(self) -> None:
        self.window = []
        self.sample()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.sample()

    def close_window(self) -> float:
        """Close the window; returns its scale factor."""
        self.sample()
        return REFERENCE_KERNEL_S / statistics.fmean(self.window)


def host_block(clock: Clock) -> dict:
    """Python version, cores, platform and the calibration kernel's time."""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "calibration_s": statistics.median(clock.samples or [kernel_seconds()]),
    }


def measure(workload, seconds: float, clock: Clock) -> dict:
    """Set up, then run whole passes until ``seconds`` are measured."""
    setups = []
    raw_setups = []
    for _ in range(SETUP_REPEATS):
        clock.open_window()
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        raw_setups.append(time.perf_counter() - start)
        setups.append(raw_setups[-1] * clock.close_window())

    order = workload.order()
    times = {item: [] for item in order}
    raw_times = {item: [] for item in order}
    signatures = {}
    failures = []
    latencies = []
    measured = 0.0
    while True:
        gc.collect()
        clock.open_window()
        elapsed_in_pass = []
        for item in order:
            clock.sample_if_due()
            begin = time.perf_counter()
            try:
                signature = workload.run(item)
            except Exception as error:  # noqa: BLE001 - counted, the run goes on
                signature = None
                failures.append(f"{item}: {type(error).__name__}: {error}")
            elapsed_in_pass.append(time.perf_counter() - begin)
            if signature is not None and signatures.setdefault(item, signature) != signature:
                failures.append(f"{item}: deterministic counts changed between passes")
        factor = clock.close_window()
        for item, elapsed in zip(order, elapsed_in_pass):
            measured += elapsed
            latencies.append(elapsed * factor)
            times[item].append(elapsed * factor)
            raw_times[item].append(elapsed)
        if measured >= seconds and len(latencies) >= workload.min_ops:
            break

    metrics = {
        "setup_s": statistics.median(setups),
        "p50_ms": statistics.median(latencies) * 1e3,
        "p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3
        if len(latencies) > 1 else latencies[0] * 1e3,
        "ops_per_s": len(latencies) / sum(latencies),
        "suite_s": sum(statistics.median(values) for values in times.values()),
        "peak_rss_mb": workload.peak_rss_mb(),
        "cfg_ops": workload.cfg_ops(),
    }
    return {
        "attempted": len(latencies),
        "failures": failures,
        "metrics": {name: (metrics[name], unit) for name, unit in END_TO_END.items()},
        "detail": {
            "raw_setups_s": raw_setups,
            "passes": len(latencies) // len(order),
            "raw_items_s": {str(item): values for item, values in raw_times.items()},
            "calibration_samples_s": clock.samples,
        },
    }


def traced(workload, trace_dir: Path, tag: str) -> dict:
    """The traced split of one pass; its numbers are per-layer only."""
    from workloads import PER_LAYER

    workload.setup()
    gc.collect()
    result = workload.traced()
    trace_dir.mkdir(parents=True, exist_ok=True)
    result.spans.write_chrome_trace(trace_dir / f"{tag}.json")
    values = result.per_layer()
    return {
        "attempted": result.attempted,
        "failures": result.failures,
        "metrics": {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()},
        "detail": {"untraced_wall_s": result.untraced_wall, "traced_wall_s": result.traced_wall},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("cli", "compile", "exec", "fuzz"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no compiler sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # The parent never writes bytecode; the cli workload's children use a
    # cache of the benchmark's own (see CliWorkload.setup).
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    from programs import WORK
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    clock = Clock()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        outcome = traced(workload, WORK / "traces", tag)
    else:
        outcome = measure(workload, args.seconds, clock)
    host = host_block(clock)

    failed = len(outcome["failures"])
    result = {
        "correct": failed == 0,
        "attempted": max(outcome["attempted"], 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }
    record = dict(result, host=host, seed=args.seed, workload=args.workload,
                  seconds=args.seconds, trace=args.trace,
                  failures=outcome["failures"], detail=outcome["detail"])
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    for failure in outcome["failures"][:20]:
        print("failure:", failure, file=sys.stderr)
    print(json.dumps({"host": host, "seed": args.seed}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
