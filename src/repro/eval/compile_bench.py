"""Compile-time benchmarking: how fast does the compiler itself run?

The paper's evaluation (Figures 9/10) measures the *runtime* of compiled
programs; the ROADMAP's north star also demands the compiler run as fast as
the hardware allows.  This module makes compiler speed a first-class,
regression-guarded quantity:

* per-phase wall time (frontend / simplify / rc-insert / lp-codegen /
  lp-fusion / lp-to-rgn / rgn-opt / rgn-to-cf) for every benchmark of the
  suite, as recorded by :class:`~repro.backend.pipeline.MlirCompiler`,
* rewrite-driver work counters (pattern match attempts, applications,
  worklist pushes) surfaced through the pass manager,
* a differential check that the worklist engine reaches the exact same
  final IR as the rescan baseline, with far fewer match attempts,
* a ``rewrite-stress`` entry — a tower of transitively dead join points
  (nested ``rgn.val``\\ s, each run twice from the next level's body) that is
  the suite's largest module and the worst case for the rescan driver: every
  nesting level costs it one full extra sweep.

Usage::

    python -m repro.eval.compile_bench                  # text report
    python -m repro.eval.compile_bench --json BENCH_compile.new.json
    python -m repro.eval.compile_bench --differential   # engine comparison
    python -m repro.eval.compile_bench --baseline BENCH_compile.json
    python -m repro.eval.compile_bench --jobs 4         # shard across processes
    python -m repro.eval.compile_bench --exec-table     # VM vs tree execution
    python -m repro.eval.compile_bench --exec-table --sizes xlarge  # VM-only tier
"""

from __future__ import annotations

import argparse
import json
from contextlib import nullcontext
from typing import Dict, List, Optional

from ..backend.pipeline import CompilationSession, MlirCompiler
from ..dialects import lp, rgn
from ..dialects.builtin import ModuleOp
from ..dialects.func import FuncOp
from ..interp.bytecode import EXECUTION_ENGINES, VirtualMachine, compile_cfg_module
from ..interp.cfg_interp import CfgInterpreter
from ..ir.builder import Builder, InsertionPoint
from ..ir.printer import print_module
from ..ir.types import FunctionType, i1
from ..record import Record
from ..rewrite import GreedyRewriteResult, apply_patterns_greedily
from ..telemetry import (
    MetricsRegistry,
    Tracer,
    get_metrics,
    get_tracer,
    measured_metrics,
    telemetry_session,
)
from ..transforms.canonicalize import canonicalization_patterns
from .benchmarks import DEFAULT_SIZES, SIZE_TIERS, benchmark_sources
from .harness import measurement_options, run_sharded

#: Compilation phases reported per benchmark (in pipeline order).
PHASES = (
    "frontend",
    "simplify",
    "rc-insert",
    "lp-codegen",
    "lp-fusion",
    "lp-to-rgn",
    "rgn-opt",
    "rgn-to-cf",
)

#: Name of the synthetic rewrite-engine stress entry.
STRESS_BENCHMARK = "rewrite-stress"

#: Default size of the stress tower: ``layers`` nested join points with
#: ``filler`` payload ops each — sized to be the suite's largest module
#: (bigger than rbmap_checkpoint's ~560-op rgn module).
STRESS_LAYERS = 24
STRESS_FILLER = 30


class CompileMeasurement(Record):
    """One (benchmark, engine) compile-time measurement."""

    _fields = (
        "benchmark", "engine", "phase_seconds", "total_seconds",
        "initial_op_count", "final_op_count", "match_attempts", "applications",
        "worklist_pushes", "driver_iterations", "ir_text", "metrics",
    )

    def __init__(
        self,
        benchmark: str,
        engine: str,
        phase_seconds: Optional[Dict[str, float]] = None,
        total_seconds: float = 0.0,
        initial_op_count: int = 0,
        final_op_count: int = 0,
        match_attempts: int = 0,
        applications: int = 0,
        worklist_pushes: int = 0,
        driver_iterations: int = 0,
        ir_text: str = "",
        metrics: Optional[Dict[str, object]] = None,
    ):
        self.benchmark = benchmark
        self.engine = engine
        self.phase_seconds = {} if phase_seconds is None else phase_seconds
        self.total_seconds = total_seconds
        #: Module size entering the rewrite-heavy part of the pipeline —
        #: the benchmark's "size" for compile-work purposes.
        self.initial_op_count = initial_op_count
        #: Op count of the final module after the full pipeline ran.
        self.final_op_count = final_op_count
        self.match_attempts = match_attempts
        self.applications = applications
        self.worklist_pushes = worklist_pushes
        self.driver_iterations = driver_iterations
        #: Printed final IR, used by the differential check (not
        #: serialised).
        self.ir_text = ir_text
        #: Unified-telemetry metrics delta recorded while compiling (empty
        #: unless a telemetry session was active; in-memory only — the
        #: BENCH_compile.json payload stays schema-stable).
        self.metrics = {} if metrics is None else metrics

    def as_json(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "engine": self.engine,
            "phase_seconds": {
                phase: self.phase_seconds[phase]
                for phase in PHASES
                if phase in self.phase_seconds
            },
            "total_seconds": self.total_seconds,
            "initial_op_count": self.initial_op_count,
            "final_op_count": self.final_op_count,
            "match_attempts": self.match_attempts,
            "applications": self.applications,
            "worklist_pushes": self.worklist_pushes,
        }


def build_stress_module(
    layers: int = STRESS_LAYERS, filler: int = STRESS_FILLER
) -> ModuleOp:
    """A tower of transitively dead join points.

    Each level is a ``rgn.val`` whose body runs the previous level's region
    from *two* sites (so the inliner's single-use gate never fires) plus
    ``filler`` payload ops; the topmost value is unused.  Dead region
    elimination must therefore cascade strictly backwards — erasing level
    ``i`` is what makes level ``i-1`` dead — which the worklist engine
    discovers through erase notifications in a single drain while the rescan
    engine pays one full module sweep per level.
    """
    module = ModuleOp()
    func = FuncOp("stress", FunctionType([i1], []))
    module.append(func)
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    previous = None
    for _ in range(layers):
        val = builder.create(rgn.ValOp)
        inner = Builder(InsertionPoint.at_end(val.body_block))
        for payload in range(filler):
            inner.create(lp.IntOp, payload)
        if previous is not None:
            inner.create(rgn.RunOp, previous.result())
            inner.create(rgn.RunOp, previous.result())
        previous = val
    return module


def measure_stress(
    engine: str,
    *,
    layers: int = STRESS_LAYERS,
    filler: int = STRESS_FILLER,
) -> CompileMeasurement:
    """Canonicalise the stress module with ``engine`` and record driver work."""
    import time

    module = build_stress_module(layers, filler)
    func = next(op for op in module.walk() if isinstance(op, FuncOp))
    initial_ops = sum(1 for _ in module.walk())
    start = time.perf_counter()
    result: GreedyRewriteResult = apply_patterns_greedily(
        func,
        canonicalization_patterns(),
        engine=engine,
        max_iterations=max(64, 4 * layers),
    )
    elapsed = time.perf_counter() - start
    return CompileMeasurement(
        benchmark=STRESS_BENCHMARK,
        engine=engine,
        phase_seconds={"rgn-opt": elapsed},
        total_seconds=elapsed,
        initial_op_count=initial_ops,
        final_op_count=sum(1 for _ in module.walk()),
        match_attempts=result.match_attempts,
        applications=result.applications,
        worklist_pushes=result.worklist_pushes,
        driver_iterations=result.iterations,
        ir_text=print_module(module),
    )


def measure_benchmark(
    name: str,
    source: str,
    *,
    engine: str = "worklist",
    variant: str = "rgn",
    session: Optional[CompilationSession] = None,
    execution_engine: Optional[str] = None,
) -> CompileMeasurement:
    """Compile one benchmark and record phase timings plus driver work.

    The default variant is ``rgn`` (λpure simplifier off, rgn optimisations
    on) — the configuration where the rewrite engine does the most work.
    """
    import time

    options = measurement_options(
        variant, rewrite_engine=engine, execution_engine=execution_engine
    )
    with get_tracer().span(
        "bench:" + name, category="harness", engine=engine, variant=variant
    ):
        if get_metrics().enabled:
            with measured_metrics() as metrics_delta:
                start = time.perf_counter()
                artifacts = MlirCompiler(options, session=session).compile(source)
                total = time.perf_counter() - start
        else:
            metrics_delta = {}
            start = time.perf_counter()
            artifacts = MlirCompiler(options, session=session).compile(source)
            total = time.perf_counter() - start

    def counter_total(key: str) -> int:
        return sum(
            counters.get(key, 0) for counters in artifacts.pass_statistics.values()
        )

    return CompileMeasurement(
        benchmark=name,
        engine=engine,
        phase_seconds=dict(artifacts.phase_timings),
        total_seconds=total,
        # The rgn module is what the rewrite engine processes; its size is
        # what pattern-matching work scales with.
        initial_op_count=artifacts.module_op_counts.get("rgn", 0),
        final_op_count=sum(1 for _ in artifacts.cfg_module.walk()) - 1,
        match_attempts=counter_total("match-attempts"),
        applications=counter_total("applications"),
        worklist_pushes=counter_total("worklist-pushes"),
        ir_text=print_module(artifacts.cfg_module),
        metrics=dict(metrics_delta),
    )


def _suite_worker(task) -> CompileMeasurement:
    """One shard of :func:`run_suite`:
    (name, source, engine, variant, execution_engine)."""
    name, source, engine, variant, execution_engine = task
    return measure_benchmark(
        name,
        source,
        engine=engine,
        variant=variant,
        session=CompilationSession(),
        execution_engine=execution_engine,
    )


def run_suite(
    sizes: Optional[Dict[str, Dict[str, int]]] = None,
    *,
    engines: tuple = ("worklist",),
    variant: str = "rgn",
    include_stress: bool = True,
    jobs: int = 1,
    execution_engine: Optional[str] = None,
) -> List[CompileMeasurement]:
    """Measure every benchmark (plus the stress module) per engine.

    ``jobs > 1`` shards the (benchmark, engine) pairs across processes —
    one worker per benchmark — and merges in suite order.  Every task gets
    its own fresh :class:`CompilationSession` whichever way it is
    scheduled, so sharding changes nothing but wall time: a shared session
    would turn the second engine's ``frontend``, ``simplify`` and
    ``rc-insert`` timings into cache hits and make jobs=1 and jobs=N
    payloads diverge.
    """
    sources = benchmark_sources(sizes or DEFAULT_SIZES)
    tasks = [
        (name, source, engine, variant, execution_engine)
        for engine in engines
        for name, source in sources.items()
    ]
    sharded = run_sharded(tasks, _suite_worker, jobs)
    if sharded is None:
        sharded = [_suite_worker(task) for task in tasks]
    by_engine: Dict[str, List[CompileMeasurement]] = {}
    for measurement in sharded:
        by_engine.setdefault(measurement.engine, []).append(measurement)
    measurements: List[CompileMeasurement] = []
    for engine in engines:
        measurements.extend(by_engine.get(engine, []))
        if include_stress:
            # The stress tower is synthetic and cheap; measure it in-process
            # so its position in the payload is stable.
            measurements.append(measure_stress(engine))
    return measurements


class DifferentialRow(Record):
    """Worklist-vs-rescan comparison for one benchmark."""

    _fields = (
        "benchmark", "ir_equal", "worklist_attempts", "rescan_attempts",
        "initial_op_count",
    )

    def __init__(
        self,
        benchmark: str,
        ir_equal: bool,
        worklist_attempts: int,
        rescan_attempts: int,
        initial_op_count: int,
    ):
        self.benchmark = benchmark
        self.ir_equal = ir_equal
        self.worklist_attempts = worklist_attempts
        self.rescan_attempts = rescan_attempts
        #: Size of the module the rewrite engine processed (pre-optimisation).
        self.initial_op_count = initial_op_count

    @property
    def attempt_ratio(self) -> float:
        if self.worklist_attempts == 0:
            return float("inf") if self.rescan_attempts else 1.0
        return self.rescan_attempts / self.worklist_attempts


def rows_from_measurements(
    measurements: List[CompileMeasurement],
) -> List[DifferentialRow]:
    """Pair up worklist/rescan measurements into differential rows."""
    by_benchmark: Dict[str, Dict[str, CompileMeasurement]] = {}
    for m in measurements:
        by_benchmark.setdefault(m.benchmark, {})[m.engine] = m
    rows = []
    for name, engines in by_benchmark.items():
        worklist, rescan = engines["worklist"], engines["rescan"]
        rows.append(
            DifferentialRow(
                benchmark=name,
                ir_equal=worklist.ir_text == rescan.ir_text,
                worklist_attempts=worklist.match_attempts,
                rescan_attempts=rescan.match_attempts,
                initial_op_count=max(
                    worklist.initial_op_count, rescan.initial_op_count
                ),
            )
        )
    return rows


def differential_rows(
    sizes: Optional[Dict[str, Dict[str, int]]] = None,
    *,
    variant: str = "rgn",
    jobs: int = 1,
) -> List[DifferentialRow]:
    """Compile the suite with both engines and compare IR and driver work."""
    return rows_from_measurements(
        run_suite(sizes, engines=("worklist", "rescan"), variant=variant, jobs=jobs)
    )


def bench_payload(
    measurements: List[CompileMeasurement],
    *,
    variant: str = "rgn",
) -> Dict[str, object]:
    """The JSON document written to ``BENCH_compile.json``."""
    return {
        "schema": "repro/compile-bench/v1",
        "variant": variant,
        "phases": list(PHASES),
        "engines": sorted({m.engine for m in measurements}),
        "benchmarks": [m.as_json() for m in measurements],
        "totals": {
            engine: {
                "total_seconds": sum(
                    m.total_seconds for m in measurements if m.engine == engine
                ),
                "match_attempts": sum(
                    m.match_attempts for m in measurements if m.engine == engine
                ),
                "applications": sum(
                    m.applications for m in measurements if m.engine == engine
                ),
            }
            for engine in sorted({m.engine for m in measurements})
        },
    }


def emit_json(
    path: str,
    sizes: Optional[Dict[str, Dict[str, int]]] = None,
    *,
    engines: tuple = ("worklist", "rescan"),
    variant: str = "rgn",
    jobs: int = 1,
    measurements: Optional[List[CompileMeasurement]] = None,
) -> Dict[str, object]:
    """Measure the suite and write ``BENCH_compile.json`` to ``path``.

    Pass precomputed ``measurements`` to serialise an existing run instead
    of re-measuring (the CLI does this when both ``--json`` and
    ``--baseline`` are requested, so the suite is compiled once).
    """
    if measurements is None:
        measurements = run_suite(sizes, engines=engines, variant=variant, jobs=jobs)
    payload = bench_payload(measurements, variant=variant)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return payload


def load_baseline(path: str) -> Dict[str, Dict[str, object]]:
    """Load a previously emitted ``BENCH_compile.json`` as a baseline table.

    Returns worklist-engine entries keyed by benchmark name; raises on a
    payload with an unknown schema so stale files fail loudly.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    schema = payload.get("schema")
    if schema != "repro/compile-bench/v1":
        raise ValueError(f"unsupported BENCH_compile schema {schema!r} in {path}")
    return {
        entry["benchmark"]: entry
        for entry in payload.get("benchmarks", ())
        if entry.get("engine") == "worklist"
    }


def compile_report(
    sizes: Optional[Dict[str, Dict[str, int]]] = None,
    *,
    variant: str = "rgn",
    baseline: Optional[Dict[str, Dict[str, object]]] = None,
    jobs: int = 1,
    measurements: Optional[List[CompileMeasurement]] = None,
) -> str:
    """Text report: per-phase timings plus the engine differential.

    With ``baseline`` (a table from :func:`load_baseline`), the phase table
    becomes a before/after comparison: each row shows the baseline run's
    rgn-opt time and match attempts next to the current ones, so a phase
    regression or improvement is visible benchmark by benchmark.  Pass
    precomputed ``measurements`` to report on an existing run.
    """
    if measurements is None:
        measurements = run_suite(
            sizes, engines=("worklist", "rescan"), variant=variant, jobs=jobs
        )
    rows = rows_from_measurements(measurements)
    worklist_by_name = {
        m.benchmark: m for m in measurements if m.engine == "worklist"
    }
    title = "Compile time: per-phase wall time and rewrite-engine work"
    lines = [title, "=" * len(title)]
    header = (
        f"{'benchmark':18s} {'ops':>5s} {'total ms':>9s} {'rgn-opt ms':>11s}"
        f" {'attempts':>9s} {'rescan':>9s} {'ratio':>6s} {'ir':>3s}"
    )
    if baseline is not None:
        header += f" {'base rgn-opt':>13s} {'Δ%':>7s} {'base att':>9s}"
    lines.append(header)
    for row in rows:
        m = worklist_by_name[row.benchmark]
        rgn_opt_ms = m.phase_seconds.get("rgn-opt", 0.0) * 1e3
        line = (
            f"{row.benchmark:18s} {row.initial_op_count:5d}"
            f" {m.total_seconds * 1e3:9.2f} {rgn_opt_ms:11.2f}"
            f" {row.worklist_attempts:9d} {row.rescan_attempts:9d}"
            f" {row.attempt_ratio:6.2f} {'ok' if row.ir_equal else 'DIFF':>4s}"
        )
        if baseline is not None:
            base = baseline.get(row.benchmark)
            if base is None:
                line += f" {'—':>13s} {'—':>7s} {'—':>9s}"
            else:
                base_rgn_ms = base.get("phase_seconds", {}).get("rgn-opt", 0.0) * 1e3
                delta = (
                    (rgn_opt_ms - base_rgn_ms) / base_rgn_ms * 100.0
                    if base_rgn_ms
                    else 0.0
                )
                line += (
                    f" {base_rgn_ms:13.2f} {delta:+6.1f}%"
                    f" {base.get('match_attempts', 0):9d}"
                )
        lines.append(line)
    total_wl = sum(r.worklist_attempts for r in rows)
    total_rs = sum(r.rescan_attempts for r in rows)
    lines.append("-" * len(header))
    lines.append(
        f"{'total':18s} {'':5s} {'':9s} {'':11s} {total_wl:9d} {total_rs:9d}"
        f" {total_rs / total_wl if total_wl else 1.0:6.2f}"
    )
    lines.append(
        "phases: " + ", ".join(PHASES) + f" (variant={variant}, sizes=default)"
    )
    return "\n".join(lines)


def execution_table(
    sizes: Optional[Dict[str, Dict[str, int]]] = None,
    *,
    variant: str = "default",
    repeats: int = 2,
    tier: str = "default",
    include_tree: Optional[bool] = None,
) -> str:
    """Execution wall-time table across the execution-strategy ladder.

    Each benchmark is compiled once; the same CFG module is then executed
    by the tree-walking oracle, the unfused switch VM (the engine before the fusion work) and
    the fused direct-threaded VM (best of ``repeats`` runs each), so the
    table isolates pure execution time.  CI appends this to the uploaded
    timings artifact — it is the regression surface for the execution-
    engine work, the way the phase table is for compile time.

    ``tier`` names the :data:`~repro.eval.benchmarks.SIZE_TIERS` entry to
    run (ignored when explicit ``sizes`` are passed).  The tree column is
    skipped on the ``xlarge`` tier by default — that tier exists precisely
    because the walkers cannot sustain it; pass ``include_tree`` to
    override either way.
    """
    if sizes is None:
        sizes = SIZE_TIERS[tier]
    else:
        tier = "custom"
    if include_tree is None:
        include_tree = tier != "xlarge"
    sources = benchmark_sources(sizes)
    session = CompilationSession()
    options = measurement_options(variant)
    title = (
        "Execution time: tree oracle vs switch VM vs fused threaded VM"
        if include_tree
        else "Execution time: switch VM vs fused threaded VM (tree skipped)"
    )
    lines = [title, "=" * len(title)]
    header = (
        f"{'benchmark':18s} {'tree ms':>9s} {'switch ms':>10s}"
        f" {'threaded ms':>12s} {'vs tree':>8s} {'vs switch':>10s}"
    )
    lines.append(header)
    total_tree = 0.0
    total_switch = 0.0
    total_threaded = 0.0
    for name, source in sources.items():
        module = MlirCompiler(options, session=session).compile(source).cfg_module
        if include_tree:
            tree_seconds = min(
                CfgInterpreter(module).run_main().metrics.wall_time_seconds
                for _ in range(repeats)
            )
            total_tree += tree_seconds
            tree_cell = f"{tree_seconds * 1e3:9.2f}"
        else:
            tree_cell = f"{'-':>9s}"
        switch_code = session.bytecode_for(module, superinstructions=False)
        switch_seconds = min(
            VirtualMachine(switch_code, dispatch="switch")
            .run_main().metrics.wall_time_seconds
            for _ in range(repeats)
        )
        threaded_code = session.bytecode_for(module)
        threaded_seconds = min(
            VirtualMachine(threaded_code).run_main().metrics.wall_time_seconds
            for _ in range(repeats)
        )
        total_switch += switch_seconds
        total_threaded += threaded_seconds
        vs_tree = (
            f"{tree_seconds / threaded_seconds:7.2f}x"
            if include_tree and threaded_seconds
            else f"{'-':>8s}"
        )
        vs_switch = (
            switch_seconds / threaded_seconds if threaded_seconds else float("inf")
        )
        lines.append(
            f"{name:18s} {tree_cell} {switch_seconds * 1e3:10.2f}"
            f" {threaded_seconds * 1e3:12.2f} {vs_tree} {vs_switch:9.2f}x"
        )
    lines.append("-" * len(header))
    total_tree_cell = (
        f"{total_tree * 1e3:9.2f}" if include_tree else f"{'-':>9s}"
    )
    total_vs_tree = (
        f"{total_tree / total_threaded:7.2f}x"
        if include_tree and total_threaded
        else f"{'-':>8s}"
    )
    total_vs_switch = (
        total_switch / total_threaded if total_threaded else float("inf")
    )
    lines.append(
        f"{'total':18s} {total_tree_cell} {total_switch * 1e3:10.2f}"
        f" {total_threaded * 1e3:12.2f} {total_vs_tree} {total_vs_switch:9.2f}x"
    )
    lines.append(
        f"(variant={variant}, sizes={tier}, best of {repeats} runs; "
        "switch column runs unfused bytecode — the pre-fusion engine)"
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write BENCH_compile.json-style output to PATH",
    )
    parser.add_argument(
        "--variant", default=None,
        help="pipeline variant to compile with (default: rgn for the "
        "compile report, default for --exec-table — the configuration "
        "the figure suite executes)",
    )
    parser.add_argument(
        "--differential", action="store_true",
        help="print only the worklist-vs-rescan differential",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="compare the phase table against a previously written "
        "BENCH_compile.json (before/after per benchmark)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard the suite across N worker processes "
        "(one benchmark per worker; default: sequential)",
    )
    parser.add_argument(
        "--exec-table", action="store_true",
        help="print the execution wall-time table (tree oracle vs switch "
        "VM vs fused threaded VM) instead of the compile-time report",
    )
    parser.add_argument(
        "--sizes", choices=sorted(SIZE_TIERS), default="default",
        help="problem-size tier for --exec-table (the tree column is "
        "skipped on xlarge — that tier is VM-only)",
    )
    parser.add_argument(
        "--execution-engine", choices=EXECUTION_ENGINES, default=None,
        help="execution engine configured on the compile options (compile "
        "benchmarks never execute; with --exec-table, both engines are "
        "always compared)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a Chrome trace-event JSON of the whole run "
        "(forces --jobs 1: spans from forked workers stay worker-local)",
    )
    parser.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="write a JSON snapshot of the unified metrics registry",
    )
    args = parser.parse_args(argv)

    telemetry_on = bool(args.trace_out or args.metrics_json)
    if args.trace_out and args.jobs > 1:
        print("note: --trace-out forces --jobs 1 (spans are per-process)")
        args.jobs = 1
    tracer = Tracer() if telemetry_on else None
    registry = MetricsRegistry() if telemetry_on else None
    scope = (
        telemetry_session(tracer=tracer, metrics=registry)
        if telemetry_on
        else nullcontext()
    )
    try:
        with scope:
            return _run_reports(args)
    finally:
        if args.trace_out:
            tracer.write_chrome_trace(args.trace_out)
        if args.metrics_json:
            registry.write_json(args.metrics_json)


def _run_reports(args) -> int:
    if args.exec_table:
        print(execution_table(variant=args.variant or "default", tier=args.sizes))
        return 0
    if args.variant is None:
        args.variant = "rgn"

    if args.json:
        # Measure once; --baseline additionally reports on the same run.
        measurements = run_suite(
            engines=("worklist", "rescan"),
            variant=args.variant,
            jobs=args.jobs,
            execution_engine=args.execution_engine,
        )
        payload = emit_json(
            args.json, variant=args.variant, measurements=measurements
        )
        suites = len(payload["benchmarks"])
        print(f"wrote {args.json} ({suites} measurements)")
        if args.baseline:
            baseline = load_baseline(args.baseline)
            print(
                compile_report(
                    variant=args.variant,
                    baseline=baseline,
                    measurements=measurements,
                )
            )
        return 0
    if args.differential:
        for row in differential_rows(variant=args.variant, jobs=args.jobs):
            print(
                f"{row.benchmark:18s} worklist={row.worklist_attempts:6d} "
                f"rescan={row.rescan_attempts:6d} ratio={row.attempt_ratio:5.2f} "
                f"ir_equal={row.ir_equal}"
            )
        return 0
    baseline = load_baseline(args.baseline) if args.baseline else None
    print(compile_report(variant=args.variant, baseline=baseline, jobs=args.jobs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
