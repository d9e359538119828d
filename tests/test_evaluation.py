"""Tests for the interpreters' cost model and the evaluation harness."""

import pytest

from repro.backend import run_baseline, run_mlir, run_reference
from repro.eval import (
    DEFAULT_SIZES,
    EvaluationHarness,
    benchmark_sources,
    geometric_mean,
    regression_programs,
)
from repro.eval import compile_bench, harness as harness_module
from repro.eval.figures import (
    PAPER_FIGURE9,
    correctness_report,
    figure11_table,
    format_speedup_figure,
    main as figures_main,
)
from repro.interp import DEFAULT_COSTS, ExecutionMetrics

SMALL_SIZES = {
    "binarytrees": {"depth": 4},
    "binarytrees-int": {"depth": 4},
    "const_fold": {"depth": 3, "reps": 2},
    "deriv": {"reps": 2},
    "digits": {"reps": 3, "span": 6},
    "filter": {"length": 15},
    "qsort": {"size": 8},
    "rbmap_checkpoint": {"inserts": 8},
    "unionfind": {"elements": 10, "unions": 8},
}


class TestMetrics:
    def test_charge_and_totals(self):
        metrics = ExecutionMetrics()
        metrics.charge("call", 2)
        metrics.charge("rc", 3)
        assert metrics.total_operations() == 5
        assert metrics.total_cost() == 2 * DEFAULT_COSTS["call"] + 3 * DEFAULT_COSTS["rc"]

    def test_merge(self):
        a = ExecutionMetrics()
        a.charge("call")
        b = ExecutionMetrics()
        b.charge("call")
        b.charge("rc")
        merged = a.merged_with(b)
        assert merged.counts["call"] == 2 and merged.counts["rc"] == 1

    def test_constants_are_free(self):
        assert DEFAULT_COSTS["const"] == 0

    def test_as_dict(self):
        metrics = ExecutionMetrics()
        metrics.charge("branch")
        d = metrics.as_dict()
        assert d["total_operations"] == 1 and "counts" in d


class TestCostComparability:
    def test_backends_report_same_allocations(self):
        source = benchmark_sources(SMALL_SIZES)["binarytrees"]
        baseline = run_baseline(source)
        mlir = run_mlir(source)
        assert baseline.heap_stats["allocations"] == mlir.heap_stats["allocations"]

    def test_backends_report_same_calls(self):
        source = benchmark_sources(SMALL_SIZES)["filter"]
        baseline = run_baseline(source)
        mlir = run_mlir(source)
        assert baseline.metrics.counts["call"] == mlir.metrics.counts["call"]

    def test_metrics_are_deterministic(self):
        # Counts only: two runs of one program record equal metrics.
        source = "def main : Nat := 1 + 1"
        assert run_baseline(source).metrics == run_baseline(source).metrics
        assert run_mlir(source).metrics == run_mlir(source).metrics


class TestHarness:
    @pytest.fixture(scope="class")
    def harness(self):
        return EvaluationHarness(SMALL_SIZES)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_correctness_report(self, harness):
        report = harness.verify_correctness()
        assert set(report) == set(DEFAULT_SIZES)
        assert all(report.values())
        assert f"{len(report)}/{len(report)} benchmarks agree" in (
            correctness_report(report)
        )

    def test_figure9_shape(self, harness):
        data = harness.figure9()
        assert len(data.rows) == len(DEFAULT_SIZES)
        assert all(row.speedup > 0 for row in data.rows)
        # Performance parity: the geomean is close to 1.0 (paper: 1.09x).
        assert 0.8 <= data.geomean <= 1.3

    def test_figure10_shape(self, harness):
        data = harness.figure10()
        assert len(data.rows) == len(DEFAULT_SIZES)
        assert "none" in data.extra_series
        assert 0.8 <= data.geomean <= 1.3
        # rgn optimisations never hurt relative to no optimisations.
        for rgn_row, none_row in zip(data.rows, data.extra_series["none"]):
            assert rgn_row.speedup >= none_row.speedup - 1e-9

    def test_figure_formatting(self, harness):
        data = harness.figure9()
        text = format_speedup_figure(data, "Figure 9", paper=PAPER_FIGURE9)
        assert "geomean" in text
        for name in DEFAULT_SIZES:
            assert name in text

    def test_figure11_table(self):
        table = figure11_table()
        assert "Tail call optimization" in table
        assert "CSE" in table


class TestBenchmarkPrograms:
    def test_every_benchmark_typechecks_and_runs(self):
        sources = benchmark_sources(SMALL_SIZES)
        assert set(sources) == set(DEFAULT_SIZES)
        for source in sources.values():
            assert run_reference(source) is not None

    def test_regression_programs_have_unique_names(self):
        programs = regression_programs()
        names = [p.name for p in programs]
        assert len(names) == len(set(names))


class TestFiguresExitCodes:
    """A failed check makes ``figures`` exit with the failing layer's code
    (as ``python -m repro`` does), not 0."""

    def test_correctness_mismatch_exits_5(self, monkeypatch, capsys):
        def wrong_reference(source, **kwargs):
            return object()  # equal to no backend's value

        monkeypatch.setattr(harness_module, "run_reference", wrong_reference)
        assert figures_main(["--correctness", "--sizes", "default"]) == 5
        assert "FAIL" in capsys.readouterr().out

    def test_engine_ir_divergence_exits_4(self, monkeypatch, capsys):
        measure_stress = compile_bench.measure_stress

        def diverging_stress(engine, **kwargs):
            measurement = measure_stress(engine, **kwargs)
            if engine == "rescan":
                measurement.ir_text += "// diverged\n"
            return measurement

        monkeypatch.setattr(compile_bench, "measure_stress", diverging_stress)
        assert figures_main(["--figure", "compile"]) == 4
        out = capsys.readouterr().out
        assert "rewrite-stress" in out and "DIFF" in out
