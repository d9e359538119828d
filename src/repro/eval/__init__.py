"""Evaluation: benchmark programs, harness and figure regeneration."""

from ..lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".benchmarks": ("BENCHMARK_NAMES", "DEFAULT_SIZES", "benchmark_sources"),
    ".harness": (
        "EvaluationHarness", "FigureData", "RcTableRow", "SpeedupRow",
        "VariantMeasurement", "geometric_mean", "measurement_options",
    ),
    ".testsuite": (
        "TestProgram", "programs_by_category", "regression_programs",
    ),
})
