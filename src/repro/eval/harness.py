"""Evaluation harness: runs the benchmark suite through the pipeline variants
and computes the speedup series of Figures 9 and 10.

The harness is session-aware and shardable:

* every measurement threads one :class:`~repro.backend.pipeline.
  CompilationSession` per worker, so the frontend of a source is parsed and
  type-checked once no matter how many variants compile it,
* ``jobs > 1`` fans the suite out across processes — one worker per
  benchmark — and merges the results back in suite order, so the figure
  output is byte-identical to a sequential run.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..backend.pipeline import (
    FIGURE10_VARIANTS,
    RC_VARIANTS,
    CompilationSession,
    PipelineOptions,
    run_baseline,
    run_mlir,
    run_reference,
)
from ..record import Record
from ..telemetry import get_metrics, get_tracer, measured_metrics
from .benchmarks import DEFAULT_SIZES, benchmark_sources


def measurement_options(
    variant: str,
    *,
    rewrite_engine: Optional[str] = None,
    execution_engine: Optional[str] = None,
    # Only perfbench/staged.py still passes this keyword.
    dispatch: str = "threaded",
) -> PipelineOptions:
    """The :class:`PipelineOptions` used for *measurement* runs.

    One shared construction point for the harness and the compile-time
    benchmarks: resolves the variant, switches per-pass verification off
    (measurements time the pipeline, not the verifier) and applies the
    requested rewrite and execution engines.  Session/jobs configuration
    threads through the callers; only the per-compile knobs live here.

    Incremental rgn-opt recompilation is switched off: measurement runs
    time the optimisation pipeline itself, and the fingerprint/cache work
    would distort phase timings and per-pass counters (the incremental
    layer has its own guard in ``benchmarks/test_compile_time.py``).
    """
    if dispatch != "threaded":
        raise ValueError(f"unknown dispatch mode {dispatch!r}")
    options = (
        PipelineOptions() if variant == "default" else PipelineOptions.variant(variant)
    )
    options.verify_each = False
    options.incremental_rgn_opt = False
    if rewrite_engine is not None:
        options.rewrite_engine = rewrite_engine
    if execution_engine is not None:
        options.execution_engine = execution_engine
    return options


def oracle_options(
    variant: str,
    *,
    rewrite_engine: Optional[str] = None,
    execution_engine: Optional[str] = None,
) -> PipelineOptions:
    """The :class:`PipelineOptions` of *identity checks*:
    :func:`measurement_options` with the IR verifier on after every pass.

    The differential fuzz matrix, ``figures --correctness`` and the
    identity guards of ``benchmarks/test_execution_time.py`` run with
    these, so a pass that breaks an IR invariant is a finding there.
    """
    options = measurement_options(
        variant,
        rewrite_engine=rewrite_engine,
        execution_engine=execution_engine,
    )
    options.verify_each = True
    return options


class VariantMeasurement(Record):
    """One (benchmark, pipeline-variant) measurement."""

    _fields = (
        "benchmark", "variant", "value", "total_cost", "total_operations",
        "allocations", "rc_ops", "reuses", "metrics",
    )

    def __init__(
        self,
        benchmark: str,
        variant: str,
        value: object,
        total_cost: int,
        total_operations: int,
        allocations: int,
        rc_ops: int,
        reuses: int = 0,
        metrics: Optional[Dict[str, object]] = None,
    ):
        self.benchmark = benchmark
        self.variant = variant
        self.value = value
        self.total_cost = total_cost
        self.total_operations = total_operations
        self.allocations = allocations
        self.rc_ops = rc_ops
        self.reuses = reuses
        #: Unified-telemetry metrics delta recorded while this measurement ran
        #: (empty unless a telemetry session was active; see
        #: ``docs/OBSERVABILITY.md``).
        self.metrics = {} if metrics is None else metrics


class SpeedupRow(Record):
    """One bar of a speedup figure."""

    _fields = ("benchmark", "speedup", "baseline_cost", "candidate_cost")

    def __init__(
        self,
        benchmark: str,
        speedup: float,
        baseline_cost: int,
        candidate_cost: int,
    ):
        self.benchmark = benchmark
        self.speedup = speedup
        self.baseline_cost = baseline_cost
        self.candidate_cost = candidate_cost


class FigureData(Record):
    """All rows of one figure plus the geometric-mean summary."""

    _fields = ("figure", "rows", "extra_series")

    def __init__(
        self,
        figure: str,
        rows: Optional[List[SpeedupRow]] = None,
        extra_series: Optional[Dict[str, List[SpeedupRow]]] = None,
    ):
        self.figure = figure
        self.rows = [] if rows is None else rows
        self.extra_series = {} if extra_series is None else extra_series

    @property
    def geomean(self) -> float:
        return geometric_mean([r.speedup for r in self.rows])

    def geomean_of(self, series: str) -> float:
        return geometric_mean([r.speedup for r in self.extra_series[series]])


def geometric_mean(values: List[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _measure(
    benchmark: str,
    variant: str,
    source: str,
    session: Optional[CompilationSession] = None,
    execution_engine: str = "vm",
) -> VariantMeasurement:
    # The baseline reads only its rc mode, simplifier, engine and budget
    # knobs; the default variant's are the leanc configuration.
    options = measurement_options(
        "default" if variant == "baseline" else variant,
        execution_engine=execution_engine,
    )
    compile_and_run = run_baseline if variant == "baseline" else run_mlir

    with get_tracer().span(
        "measure:" + benchmark, category="harness", variant=variant
    ):
        if get_metrics().enabled:
            # Record this measurement's metrics delta — the registry is the
            # active session's, so outer aggregations still see everything.
            with measured_metrics() as metrics_delta:
                get_metrics().bump("harness.measurements")
                result = compile_and_run(source, options, session=session)
        else:
            metrics_delta = {}
            result = compile_and_run(source, options, session=session)
    counts = result.metrics.counts
    return VariantMeasurement(
        benchmark=benchmark,
        variant=variant,
        value=result.value,
        total_cost=result.metrics.total_cost(),
        total_operations=result.metrics.total_operations(),
        allocations=result.heap_stats["allocations"],
        rc_ops=counts.get("rc", 0),
        reuses=result.heap_stats.get("reuses", 0),
        metrics=dict(metrics_delta),
    )


def _measure_benchmark_worker(
    task: Tuple[str, str, Tuple[str, ...], str],
) -> List[VariantMeasurement]:
    """One shard: measure every requested variant of one benchmark.

    Runs in a worker process, so it builds its own session — the frontend
    of the benchmark is still shared across the variants it measures.
    """
    name, source, variants, execution_engine = task
    session = CompilationSession()
    return [
        _measure(name, variant, source, session, execution_engine)
        for variant in variants
    ]


def run_sharded(tasks: Sequence, worker, jobs: int) -> Optional[List]:
    """Run ``worker`` over ``tasks`` in a process pool, results in order.

    Returns None when sharding is unavailable (no ``fork`` start method) or
    pointless (one task / one job); callers then fall back to sequential.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return None
    try:
        import multiprocessing

        context = multiprocessing.get_context("fork")
    except (ImportError, ValueError):
        return None
    with get_tracer().span(
        "harness:sharded", category="harness", jobs=jobs, tasks=len(tasks)
    ):
        # Forked workers inherit the active telemetry session (contextvars
        # copy on fork); per-measurement metric deltas travel back inside
        # the pickled measurements, while worker-side spans stay local.
        with context.Pool(processes=min(jobs, len(tasks))) as pool:
            return pool.map(worker, tasks)


class RcTableRow(Record):
    """One benchmark's RC traffic across the RC-optimisation variants."""

    _fields = ("benchmark", "measurements")

    def __init__(
        self,
        benchmark: str,
        measurements: Optional[Dict[str, VariantMeasurement]] = None,
    ):
        self.benchmark = benchmark
        #: variant name -> measurement (``rc-naive``, ``rc-opt``,
        #: ``rc-opt+reuse``).
        self.measurements = {} if measurements is None else measurements

    def rc_reduction(self, variant: str = "rc-opt") -> float:
        """Fractional reduction of executed RC operations vs ``rc-naive``."""
        naive = self.measurements["rc-naive"].rc_ops
        if naive == 0:
            return 0.0
        return 1.0 - self.measurements[variant].rc_ops / naive

    def allocation_reduction(self, variant: str = "rc-opt+reuse") -> float:
        """Fractional reduction of heap allocations vs ``rc-naive``."""
        naive = self.measurements["rc-naive"].allocations
        if naive == 0:
            return 0.0
        return 1.0 - self.measurements[variant].allocations / naive


class EvaluationHarness:
    """Runs every benchmark through the requested pipeline variants.

    ``jobs`` shards measurement across processes (one worker per
    benchmark); ``session`` is the compilation session used for sequential
    runs (each worker process builds its own).  ``execution_engine``
    selects how compiled programs run: ``"vm"`` (register bytecode, the
    default) or ``"tree"`` (the tree-walking oracles) — the figures are
    byte-identical either way, only wall time changes.
    """

    def __init__(
        self,
        sizes: Optional[Dict[str, Dict[str, int]]] = None,
        *,
        jobs: int = 1,
        session: Optional[CompilationSession] = None,
        execution_engine: str = "vm",
    ):
        self.sizes = sizes or DEFAULT_SIZES
        self.sources = benchmark_sources(self.sizes)
        self.jobs = max(1, int(jobs))
        self.session = session if session is not None else CompilationSession()
        self.execution_engine = execution_engine

    # -- measurement fan-out ----------------------------------------------------
    def _measurements(
        self, variants: Sequence[str]
    ) -> Dict[str, Dict[str, VariantMeasurement]]:
        """Measure ``variants`` for every benchmark, sharded when ``jobs > 1``.

        Returns ``{benchmark: {variant: measurement}}`` in suite order —
        identical whichever way the measurements were scheduled.
        """
        tasks = [
            (name, source, tuple(variants), self.execution_engine)
            for name, source in self.sources.items()
        ]
        results = run_sharded(tasks, _measure_benchmark_worker, self.jobs)
        if results is None:
            results = [
                [
                    _measure(name, variant, source, self.session, engine)
                    for variant in variants
                ]
                for name, source, variants, engine in tasks
            ]
        return {
            task[0]: {m.variant: m for m in measurements}
            for task, measurements in zip(tasks, results)
        }

    # -- correctness ------------------------------------------------------------
    def verify_correctness(self) -> Dict[str, bool]:
        """Check that every backend agrees with the reference interpreter."""
        report: Dict[str, bool] = {}
        for name, source in self.sources.items():
            expected = run_reference(source, session=self.session)
            options = oracle_options(
                "default", execution_engine=self.execution_engine
            )
            baseline = run_baseline(source, options, session=self.session)
            mlir = run_mlir(source, options, session=self.session)
            report[name] = baseline.value == expected and mlir.value == expected
        return report

    # -- Figure 9 -----------------------------------------------------------------------
    def figure9(self) -> FigureData:
        """Speedup of the lp+rgn backend over the baseline ("leanc") backend."""
        data = FigureData(figure="figure9")
        measured = self._measurements(("baseline", "default"))
        for name in self.sources:
            baseline = measured[name]["baseline"]
            mlir = measured[name]["default"]
            if baseline.value != mlir.value:
                raise AssertionError(
                    f"{name}: backends disagree "
                    f"({baseline.value!r} vs {mlir.value!r})"
                )
            data.rows.append(
                SpeedupRow(
                    benchmark=name,
                    speedup=baseline.total_cost / mlir.total_cost,
                    baseline_cost=baseline.total_cost,
                    candidate_cost=mlir.total_cost,
                )
            )
        return data

    # -- Figure 10 -----------------------------------------------------------------------
    def figure10(self) -> FigureData:
        """Speedup of rgn optimisations (and of no optimisation) over the
        λpure-simplifier variant of the MLIR pipeline."""
        data = FigureData(figure="figure10")
        data.extra_series["none"] = []
        measured = self._measurements(FIGURE10_VARIANTS)
        for name in self.sources:
            simplifier = measured[name]["simplifier"]
            rgn = measured[name]["rgn"]
            none = measured[name]["none"]
            values = {simplifier.value, rgn.value, none.value}
            if len(values) != 1:
                raise AssertionError(f"{name}: pipeline variants disagree: {values}")
            data.rows.append(
                SpeedupRow(
                    benchmark=name,
                    speedup=simplifier.total_cost / rgn.total_cost,
                    baseline_cost=simplifier.total_cost,
                    candidate_cost=rgn.total_cost,
                )
            )
            data.extra_series["none"].append(
                SpeedupRow(
                    benchmark=name,
                    speedup=simplifier.total_cost / none.total_cost,
                    baseline_cost=simplifier.total_cost,
                    candidate_cost=none.total_cost,
                )
            )
        return data

    # -- RC optimisation table ------------------------------------------------------------
    def rc_table(self) -> List[RcTableRow]:
        """RC traffic (``rc_ops``) and heap allocations per benchmark for the
        RC ablation variants — the reporting surface of :mod:`repro.rc_opt`."""
        rows: List[RcTableRow] = []
        measured = self._measurements(RC_VARIANTS)
        for name in self.sources:
            row = RcTableRow(benchmark=name)
            values = set()
            for variant in RC_VARIANTS:
                measurement = measured[name][variant]
                row.measurements[variant] = measurement
                values.add(measurement.value)
            if len(values) != 1:
                raise AssertionError(f"{name}: RC variants disagree: {values}")
            rows.append(row)
        return rows

    # -- raw measurements ---------------------------------------------------------------------
    def all_measurements(self) -> List[VariantMeasurement]:
        variants = ("baseline", "default", *FIGURE10_VARIANTS, *RC_VARIANTS)
        measured = self._measurements(variants)
        return [
            measured[name][variant]
            for name in self.sources
            for variant in variants
        ]
