"""Compile work: how much does the rewrite engine do per benchmark?

The paper's evaluation (Figures 9/10) counts the *runtime* cost of compiled
programs.  This module counts the compiler's own work, deterministically —
wall time is measured by ``perfbench/`` alone:

* the rewrite driver's pattern match attempts, surfaced through the pass
  manager, for every benchmark of the suite,
* a differential check that the worklist engine reaches the exact same
  final IR as the rescan baseline, with far fewer match attempts,
* a ``rewrite-stress`` entry — a tower of transitively dead join points
  (nested ``rgn.val``\\ s, each run twice from the next level's body) that is
  the suite's largest module and the worst case for the rescan driver: every
  nesting level costs it one full extra sweep.

The report is ``python -m repro.eval.figures --figure compile``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..backend.pipeline import CompilationSession, MlirCompiler
from ..dialects import lp, rgn
from ..dialects.builtin import ModuleOp
from ..dialects.func import FuncOp
from ..ir.builder import Builder, InsertionPoint
from ..ir.printer import print_module
from ..ir.types import FunctionType, i1
from ..record import Record
from ..rewrite import GreedyRewriteResult, apply_patterns_greedily
from ..telemetry import get_tracer
from ..transforms.canonicalize import canonicalization_patterns
from .benchmarks import DEFAULT_SIZES, benchmark_sources
from .harness import measurement_options, run_sharded

#: Compilation phases every benchmark runs through (in pipeline order).
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
    """One (benchmark, engine) compile: driver work and final IR."""

    _fields = (
        "benchmark", "engine", "initial_op_count", "match_attempts",
        "driver_iterations", "ir_text",
    )

    def __init__(
        self,
        benchmark: str,
        engine: str,
        initial_op_count: int = 0,
        match_attempts: int = 0,
        driver_iterations: int = 0,
        ir_text: str = "",
    ):
        self.benchmark = benchmark
        self.engine = engine
        #: Module size entering the rewrite-heavy part of the pipeline —
        #: the benchmark's "size" for compile-work purposes.
        self.initial_op_count = initial_op_count
        self.match_attempts = match_attempts
        self.driver_iterations = driver_iterations
        #: Printed final IR, used by the differential check.
        self.ir_text = ir_text


def build_stress_module(
    layers: int = STRESS_LAYERS, filler: int = STRESS_FILLER
) -> ModuleOp:
    """A tower of transitively dead join points.

    Each level is a ``rgn.val`` whose body runs the previous level's region
    from *two* sites (so ``InlineRunOfKnownRegion``'s single-use gate never
    fires) plus ``filler`` payload ops; the topmost value is unused.  Dead
    region elimination must therefore cascade strictly backwards — erasing
    level ``i`` is what makes level ``i-1`` dead — which the worklist engine
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
    module = build_stress_module(layers, filler)
    func = next(op for op in module.walk() if isinstance(op, FuncOp))
    initial_ops = sum(1 for _ in module.walk())
    result: GreedyRewriteResult = apply_patterns_greedily(
        func,
        canonicalization_patterns(),
        engine=engine,
        max_iterations=max(64, 4 * layers),
    )
    return CompileMeasurement(
        benchmark=STRESS_BENCHMARK,
        engine=engine,
        initial_op_count=initial_ops,
        match_attempts=result.match_attempts,
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
) -> CompileMeasurement:
    """Compile one benchmark and record match attempts plus the final IR.

    The default variant is ``rgn`` (λpure simplifier off, rgn optimisations
    on) — the configuration where the rewrite engine does the most work.
    """
    options = measurement_options(variant, rewrite_engine=engine)
    with get_tracer().span(
        "bench:" + name, category="harness", engine=engine, variant=variant
    ):
        artifacts = MlirCompiler(options, session=session).compile(source)
    return CompileMeasurement(
        benchmark=name,
        engine=engine,
        # The rgn module is what the rewrite engine processes; its size is
        # what pattern-matching work scales with.
        initial_op_count=artifacts.module_op_counts.get("rgn", 0),
        match_attempts=sum(
            counters.get("match-attempts", 0)
            for counters in artifacts.pass_statistics.values()
        ),
        ir_text=print_module(artifacts.cfg_module),
    )


def _suite_worker(task) -> CompileMeasurement:
    """One shard of :func:`run_suite`: (name, source, engine, variant)."""
    name, source, engine, variant = task
    return measure_benchmark(
        name, source, engine=engine, variant=variant, session=CompilationSession()
    )


def run_suite(
    sizes: Optional[Dict[str, Dict[str, int]]] = None,
    *,
    engines: tuple = ("worklist",),
    variant: str = "rgn",
    jobs: int = 1,
) -> List[CompileMeasurement]:
    """Measure every benchmark (plus the stress module) per engine.

    ``jobs > 1`` shards the (benchmark, engine) pairs across processes —
    one worker per benchmark — and merges in suite order.  Every task gets
    its own fresh :class:`CompilationSession` whichever way it is
    scheduled, so sharding changes nothing but wall time: the measurements
    of jobs=1 and jobs=N are identical.
    """
    sources = benchmark_sources(sizes or DEFAULT_SIZES)
    tasks = [
        (name, source, engine, variant)
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
        # The stress tower is synthetic and cheap; measure it in-process so
        # its position in the suite is stable.
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


def differential_rows(
    sizes: Optional[Dict[str, Dict[str, int]]] = None,
    *,
    variant: str = "rgn",
    jobs: int = 1,
) -> List[DifferentialRow]:
    """Compile the suite with both engines and compare IR and driver work."""
    by_benchmark: Dict[str, Dict[str, CompileMeasurement]] = {}
    for m in run_suite(
        sizes, engines=("worklist", "rescan"), variant=variant, jobs=jobs
    ):
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


def compile_report(rows: List[DifferentialRow], *, variant: str = "rgn") -> str:
    """Text report of :func:`differential_rows`: per-benchmark match
    attempts under both engines and whether their final IR agrees."""
    title = "Compile work: rewrite-engine match attempts, worklist vs rescan"
    lines = [title, "=" * len(title)]
    header = (
        f"{'benchmark':18s} {'ops':>5s}"
        f" {'attempts':>9s} {'rescan':>9s} {'ratio':>6s} {'ir':>3s}"
    )
    lines.append(header)
    for row in rows:
        lines.append(
            f"{row.benchmark:18s} {row.initial_op_count:5d}"
            f" {row.worklist_attempts:9d} {row.rescan_attempts:9d}"
            f" {row.attempt_ratio:6.2f} {'ok' if row.ir_equal else 'DIFF':>4s}"
        )
    total_wl = sum(r.worklist_attempts for r in rows)
    total_rs = sum(r.rescan_attempts for r in rows)
    lines.append("-" * len(header))
    lines.append(
        f"{'total':18s} {'':5s} {total_wl:9d} {total_rs:9d}"
        f" {total_rs / total_wl if total_wl else 1.0:6.2f}"
    )
    lines.append(
        "phases: " + ", ".join(PHASES) + f" (variant={variant}, sizes=default)"
    )
    return "\n".join(lines)
