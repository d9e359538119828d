"""Tests for the unified telemetry subsystem.

Covers the span tracer (nesting, Chrome trace-event export, text report),
the central metrics registry, the null-object disabled path, the pass
manager's instrumentation hooks (including both failure modes: a raising
pass and a ``verify_each`` rejection), the print-IR instrumentation, the
CLI flags (``--trace-out`` / ``--metrics-json`` / ``--verbose`` /
``--exec-stats`` / ``--print-ir-after``), the determinism of metrics
snapshots, and two drift guards: span well-nestedness across the
regression-suite × variant matrix (hypothesis), and the metric namespace
set against ``docs/OBSERVABILITY.md``.
"""

import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.pipeline import (
    CompilationSession,
    MlirCompiler,
    PipelineOptions,
    run_mlir,
)
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.dialects import lp
from repro.eval.harness import _measure
from repro.eval.testsuite import regression_programs
from repro.ir import Builder, FunctionType, InsertionPoint
from repro.ir.core import Block
from repro.ir.types import box
from repro.ir.verifier import VerificationError
from repro.rewrite.pass_manager import Pass, PassManager
from repro.telemetry import (
    NAMESPACES,
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    PassInstrumentation,
    PrintIRInstrumentation,
    Tracer,
    active_session,
    cli_telemetry,
    get_metrics,
    get_tracer,
    measured_metrics,
    metric_component,
    namespace_of,
    snapshot_delta,
    telemetry_session,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
OBSERVABILITY_MD = REPO_ROOT / "docs" / "OBSERVABILITY.md"

REGRESSION_BY_NAME = {p.name: p for p in regression_programs()}


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_args(self):
        tracer = Tracer()
        with tracer.span("outer", category="phase", variant="rgn") as outer:
            with tracer.span("inner") as inner:
                inner.set("count", 3)
        assert [s.name for s in tracer.roots] == ["outer"]
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.args == {"variant": "rgn"}
        assert inner.args == {"count": 3}
        assert inner.duration_seconds <= outer.duration_seconds

    def test_siblings_stay_siblings(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        (parent,) = tracer.roots
        assert [c.name for c in parent.children] == ["a", "b"]
        assert all(not c.children for c in parent.children)

    def test_exception_annotates_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        (span,) = tracer.roots
        assert span.args["error"] == "ValueError"
        assert span.end is not None  # clock stopped despite the raise

    def test_all_spans_depth_first_start_order(self):
        tracer = Tracer()
        with tracer.span("r1"):
            with tracer.span("c1"):
                pass
            with tracer.span("c2"):
                pass
        with tracer.span("r2"):
            pass
        assert [s.name for s in tracer.all_spans()] == ["r1", "c1", "c2", "r2"]
        assert [s.name for s in tracer.find("c2")] == ["c2"]

    def test_report_tree(self):
        tracer = Tracer()
        with tracer.span("compile", pipeline="lp+rgn"):
            with tracer.span("phase:frontend"):
                pass
        report = tracer.report()
        assert "Telemetry trace" in report
        assert "compile" in report and "pipeline=lp+rgn" in report
        # The child is indented under its parent.
        assert re.search(r"^  phase:frontend", report, re.MULTILINE)


class TestChromeTraceExport:
    def test_schema(self):
        tracer = Tracer()
        with tracer.span("outer", category="phase"):
            with tracer.span("inner", category="pass", n=1):
                pass
        trace = tracer.to_chrome_trace()
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        assert len(events) == 2
        for event in events:
            # The complete-event shape Perfetto / chrome://tracing load.
            assert event["ph"] == "X"
            assert isinstance(event["name"], str)
            assert isinstance(event["cat"], str)
            assert isinstance(event["ts"], float) and event["ts"] >= 0.0
            assert isinstance(event["dur"], float) and event["dur"] >= 0.0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert isinstance(event["args"], dict)
        outer, inner = events
        # The child event nests inside the parent's interval.
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6

    def test_write_chrome_trace_round_trips(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s", obj=object()):  # non-JSON arg must not break it
            pass
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["traceEvents"][0]["name"] == "s"


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_bump_get_snapshot(self):
        registry = MetricsRegistry()
        registry.bump("rewrite.cse.applications")
        registry.bump("rewrite.cse.applications", 4)
        registry.bump("session.frontend.misses")
        assert registry.get("rewrite.cse.applications") == 5
        assert registry.get("absent", default=7) == 7
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        assert len(registry) == 2

    def test_write_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.bump("vm.instr.freq.inc", 3)
        path = tmp_path / "metrics.json"
        registry.write_json(str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro/metrics/v1"
        assert payload["metrics"] == {"vm.instr.freq.inc": 3}

    def test_metric_component_sanitises(self):
        assert metric_component("region-gvn") == "region_gvn"
        assert metric_component("match-attempts") == "match_attempts"
        assert metric_component("rc-opt+reuse") == "rc_opt_reuse"

    def test_namespace_of(self):
        assert namespace_of("vm.instr.freq.inc") == "vm"
        assert namespace_of("harness.measurements") == "harness"

    def test_snapshot_delta(self):
        before = {"a": 1, "b": 2}
        after = {"a": 4, "b": 2, "c": 1}
        assert snapshot_delta(after, before) == {"a": 3, "c": 1}


class TestDisabledPath:
    def test_null_singletons_outside_session(self):
        assert active_session() is None
        assert get_tracer() is NULL_TRACER
        assert get_metrics() is NULL_REGISTRY
        assert not NULL_TRACER.enabled
        assert not NULL_REGISTRY.enabled

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("anything", category="x", k=1) as span:
            span.set("more", 2)
        # Same shared no-op object every time; no state anywhere.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_null_registry_stores_nothing(self):
        NULL_REGISTRY.bump("x")
        assert NULL_REGISTRY.snapshot() == {}
        assert len(NULL_REGISTRY) == 0

    def test_session_scoping_restores_previous(self):
        with telemetry_session() as outer:
            assert get_tracer() is outer.tracer
            with telemetry_session() as inner:
                assert get_tracer() is inner.tracer
            assert get_tracer() is outer.tracer
        assert get_tracer() is NULL_TRACER

    def test_measured_metrics_with_active_session(self):
        with telemetry_session() as session:
            session.metrics.bump("harness.measurements", 10)
            with measured_metrics() as delta:
                session.metrics.bump("harness.measurements", 2)
            assert delta == {"harness.measurements": 2}
            # The outer registry still sees everything.
            assert session.metrics.get("harness.measurements") == 12

    def test_measured_metrics_without_session(self):
        with measured_metrics() as delta:
            get_metrics().bump("vm.instr.freq.inc", 5)
        assert delta == {"vm.instr.freq.inc": 5}
        assert get_metrics() is NULL_REGISTRY


# ---------------------------------------------------------------------------
# Pass-manager instrumentation hooks
# ---------------------------------------------------------------------------


class RecordingInstrumentation(PassInstrumentation):
    def __init__(self):
        self.events = []

    def run_before_pass(self, pass_, module):
        self.events.append(("before", pass_.name))

    def run_after_pass(self, pass_, module):
        self.events.append(("after", pass_.name))

    def run_after_pass_failed(self, pass_, module, error):
        self.events.append(("failed", pass_.name, type(error).__name__))


class NopPass(Pass):
    name = "nop"

    def run(self, module):
        pass


class RaisingPass(Pass):
    name = "raising"

    def run(self, module):
        raise RuntimeError("pass exploded")


class CorruptingPass(Pass):
    """Appends a function whose entry block lacks a terminator."""

    name = "corrupting"

    def run(self, module):
        bad = FuncOp("bad", FunctionType([], [box]))
        module.append(bad)


def valid_module() -> ModuleOp:
    module = ModuleOp()
    func = FuncOp("f", FunctionType([], [box]))
    module.append(func)
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    value = builder.create(lp.IntOp, 7)
    builder.create(ReturnOp, [value.result()])
    return module


class TestPassInstrumentation:
    def test_hooks_bracket_every_pass_in_order(self):
        recorder = RecordingInstrumentation()
        pm = PassManager(
            [NopPass(), NopPass()], instrumentations=[recorder]
        )
        pm.run(valid_module())
        assert recorder.events == [
            ("before", "nop"), ("after", "nop"),
            ("before", "nop"), ("after", "nop"),
        ]

    def test_raising_pass_fires_failure_hook(self):
        recorder = RecordingInstrumentation()
        pm = PassManager([RaisingPass()], instrumentations=[recorder])
        with pytest.raises(RuntimeError, match="pass exploded"):
            pm.run(valid_module())
        assert recorder.events == [
            ("before", "raising"), ("failed", "raising", "RuntimeError"),
        ]

    def test_verify_each_rejection_fires_failure_hook(self):
        recorder = RecordingInstrumentation()
        pm = PassManager(
            [CorruptingPass()], verify_each=True, instrumentations=[recorder]
        )
        with pytest.raises(VerificationError):
            pm.run(valid_module())
        assert recorder.events == [
            ("before", "corrupting"),
            ("failed", "corrupting", "VerificationError"),
        ]

    def test_pass_spans_and_metrics_publish(self):
        with telemetry_session() as session:
            pm = PassManager([NopPass()])
            pm.run(valid_module())
        assert [s.name for s in session.tracer.find("pass:nop")] == ["pass:nop"]
        assert [s.name for s in session.tracer.find("verify:nop")] == [
            "verify:nop"
        ]
        (span,) = session.tracer.find("pass:nop")
        assert span.duration_seconds > 0.0
        assert all(isinstance(v, int) for v in session.metrics.snapshot().values())


class TestPrintIRInstrumentation:
    def test_print_after_named_pass(self):
        stream = io.StringIO()
        instr = PrintIRInstrumentation(print_after=("nop",), stream=stream)
        PassManager([NopPass()], instrumentations=[instr]).run(valid_module())
        text = stream.getvalue()
        assert "// -----// IR Dump After nop //----- //" in text
        assert 'sym_name = "f"' in text

    def test_print_after_all(self):
        stream = io.StringIO()
        instr = PrintIRInstrumentation(print_after_all=True, stream=stream)
        PassManager(
            [NopPass(), NopPass()], instrumentations=[instr]
        ).run(valid_module())
        assert stream.getvalue().count("IR Dump After nop") == 2

    def test_silent_when_not_requested(self):
        stream = io.StringIO()
        instr = PrintIRInstrumentation(stream=stream)
        PassManager([NopPass()], instrumentations=[instr]).run(valid_module())
        assert stream.getvalue() == ""

    def test_failure_dump_names_pass_and_failing_function(self):
        stream = io.StringIO()
        instr = PrintIRInstrumentation(stream=stream)
        pm = PassManager([CorruptingPass()], instrumentations=[instr])
        with pytest.raises(VerificationError):
            pm.run(valid_module())
        text = stream.getvalue()
        assert (
            "// -----// IR Dump After corrupting Failed (VerificationError)"
            in text
        )
        # The failing *function* is located and printed, not the whole module.
        assert "// function @bad failed verification after pass 'corrupting':"\
            in text
        assert 'sym_name = "bad"' in text
        assert 'sym_name = "f"' not in text

    def test_pipeline_option_wires_print_ir_after(self, capsys):
        options = PipelineOptions()
        options.print_ir_after = ("dce",)
        source = REGRESSION_BY_NAME["arith_add"].source
        MlirCompiler(options).compile(source)
        captured = capsys.readouterr()
        assert "// -----// IR Dump After dce //----- //" in captured.err


# ---------------------------------------------------------------------------
# End-to-end: pipeline, VM, session, harness
# ---------------------------------------------------------------------------


class TestEndToEndTelemetry:
    def test_compile_and_run_span_tree(self):
        source = REGRESSION_BY_NAME["arith_add"].source
        with telemetry_session() as session:
            run_mlir(source)
        names = [s.name for s in session.tracer.all_spans()]
        (compile_span,) = session.tracer.find("compile")
        assert compile_span.args["pipeline"] == "lp+rgn"
        phase_children = [
            c.name for c in compile_span.children if c.name.startswith("phase:")
        ]
        assert phase_children[0] == "phase:frontend"
        assert "phase:rgn-opt" in phase_children
        # Passes nest under the rgn-opt phase, the VM run is its own root.
        (rgn_opt,) = session.tracer.find("phase:rgn-opt")
        assert any(c.name.startswith("pass:") for c in rgn_opt.children)
        assert "vm:run" in names

    def test_metrics_cover_every_counter_surface(self):
        source = REGRESSION_BY_NAME["arith_add"].source
        with telemetry_session() as session:
            session_obj = CompilationSession()
            _measure("arith_add", "default", source, session_obj)
        snapshot = session.metrics.snapshot()
        # pass counters / meters
        assert any(k.startswith("rewrite.") for k in snapshot)
        # phase timings live in spans, not in the registry
        assert session.tracer.find("phase:frontend")
        assert all(isinstance(value, int) for value in snapshot.values())
        # session cache traffic
        assert "session.frontend.misses" in snapshot
        # VM instruction frequencies
        assert any(k.startswith("vm.instr.freq.") for k in snapshot)
        # harness bookkeeping
        assert snapshot["harness.measurements"] == 1

    def test_harness_measurement_carries_metrics_delta(self):
        source = REGRESSION_BY_NAME["arith_add"].source
        with telemetry_session():
            measurement = _measure("arith_add", "default", source, CompilationSession())
        assert measurement.metrics  # non-empty delta travelled back
        assert measurement.metrics["harness.measurements"] == 1
        assert any(
            k.startswith("vm.instr.freq.") for k in measurement.metrics
        )

    def test_measurements_off_session_have_empty_metrics(self):
        source = REGRESSION_BY_NAME["arith_add"].source
        measurement = _measure("arith_add", "default", source, CompilationSession())
        assert measurement.metrics == {}

    def test_session_cache_hit_flag_in_spans(self):
        source = REGRESSION_BY_NAME["arith_add"].source
        with telemetry_session() as session:
            compilation = CompilationSession()
            compilation.frontend(source)
            compilation.frontend(source)
        lookups = session.tracer.find("session:frontend")
        assert [s.args["hit"] for s in lookups] == [False, True]
        assert session.metrics.get("session.frontend.hits") == 1
        assert session.metrics.get("session.frontend.misses") == 1

    def test_vm_instruction_frequencies_always_on(self):
        source = REGRESSION_BY_NAME["arith_add"].source
        artifacts = MlirCompiler().compile(source)
        from repro.interp.bytecode import VirtualMachine, compile_cfg_module

        vm = VirtualMachine(compile_cfg_module(artifacts.cfg_module))
        vm.run_main()
        frequencies = vm.instruction_frequencies()
        assert frequencies  # counted without any telemetry session
        assert all(count > 0 for count in frequencies.values())
        counts = list(frequencies.values())
        assert counts == sorted(counts, reverse=True)


# ---------------------------------------------------------------------------
# Hypothesis: well-nestedness across the regression × variant matrix
# ---------------------------------------------------------------------------


def assert_well_nested(span):
    assert span.start is not None and span.end is not None
    assert span.start <= span.end
    for child in span.children:
        # Children lie within the parent's interval and don't overlap
        # each other (spans close in LIFO order on one thread).
        assert span.start <= child.start
        assert child.end <= span.end + 1e-9
        assert_well_nested(child)
    for first, second in zip(span.children, span.children[1:]):
        assert first.end <= second.start + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(REGRESSION_BY_NAME)),
    variant=st.sampled_from(["default", "rgn", "none", "rc-opt+reuse"]),
)
def test_span_forest_is_well_nested(name, variant):
    source = REGRESSION_BY_NAME[name].source
    options = (
        PipelineOptions()
        if variant == "default"
        else PipelineOptions.variant(variant)
    )
    with telemetry_session() as session:
        run_mlir(source, options)
    assert session.tracer.roots
    for root in session.tracer.roots:
        assert_well_nested(root)
    # Every recorded span made it into the Chrome export.
    events = session.tracer.to_chrome_trace()["traceEvents"]
    assert len(events) == len(session.tracer.all_spans())


# ---------------------------------------------------------------------------
# CLI flags
# ---------------------------------------------------------------------------


class TestCliTelemetry:
    def _write_benchmark(self, tmp_path) -> str:
        from repro.eval.benchmarks import benchmark_sources

        source = benchmark_sources()["rbmap_checkpoint"]
        path = tmp_path / "rbmap.lean"
        path.write_text(source, encoding="utf-8")
        return str(path)

    def test_acceptance_trace_and_metrics(self, tmp_path, capsys):
        """The PR's acceptance flow: one compile of the largest benchmark
        produces a Perfetto-loadable trace covering frontend → passes →
        lowering → execution, and a metrics snapshot from all five stat
        surfaces."""
        from repro.__main__ import main

        program = self._write_benchmark(tmp_path)
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            program,
            "--trace-out", str(trace_path),
            "--metrics-json", str(metrics_path),
        ])
        assert code == 0
        capsys.readouterr()

        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        events = trace["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        names = {e["name"] for e in events}
        assert {"compile", "phase:frontend", "phase:rgn-opt",
                "phase:rgn-to-cf", "vm:run"} <= names
        # Every pass of the rgn pipeline shows up.
        assert {"pass:cse", "pass:region-gvn", "pass:canonicalize",
                "pass:dce"} <= names

        payload = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro/metrics/v1"
        metrics = payload["metrics"]
        assert namespace_of(next(iter(metrics))) in NAMESPACES
        assert any(k.startswith("rewrite.") for k in metrics)
        assert "rewrite.region_gvn.fingerprints_computed" in metrics
        assert all(isinstance(value, int) for value in metrics.values())
        assert "session.frontend.misses" in metrics
        assert any(k.startswith("vm.instr.freq.") for k in metrics)

    def test_exec_stats_table(self, tmp_path, capsys):
        from repro.__main__ import main

        program = self._write_benchmark(tmp_path)
        assert main([program, "--exec-stats"]) == 0
        out = capsys.readouterr().out
        assert "[exec-stats]" in out
        match = re.search(r"\[exec-stats\] (\d+) instructions", out)
        assert match and int(match.group(1)) > 0
        # Rows are count-sorted, shares are percentages.
        rows = re.findall(r"^  (\w+) +(\d+) +([\d.]+)%$", out, re.MULTILINE)
        assert rows
        counts = [int(count) for _, count, _ in rows]
        assert counts == sorted(counts, reverse=True)

    def test_exec_stats_rejects_tree_engine(self, tmp_path, capsys):
        from repro.__main__ import main

        program = self._write_benchmark(tmp_path)
        assert main(
            [program, "--exec-stats", "--execution-engine", "tree"]
        ) == 2
        assert "--exec-stats" in capsys.readouterr().err

    def test_trace_written_even_when_compile_fails(self, tmp_path, capsys):
        from repro.__main__ import main

        bad = tmp_path / "bad.lean"
        bad.write_text("def main : Nat := undefined_name\n", encoding="utf-8")
        trace_path = tmp_path / "trace.json"
        # Exit 3: the frontend layer rejected the program (docs/RESILIENCE.md).
        assert main([str(bad), "--trace-out", str(trace_path)]) == 3
        capsys.readouterr()
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        assert "traceEvents" in trace

    def test_print_ir_after_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        program = tmp_path / "p.lean"
        program.write_text(
            REGRESSION_BY_NAME["arith_add"].source, encoding="utf-8"
        )
        assert main([str(program), "--print-ir-after", "dce"]) == 0
        assert "IR Dump After dce" in capsys.readouterr().err


class TestCliTelemetryScope:
    def test_no_session_unless_asked(self):
        with cli_telemetry() as session:
            assert session is None
            assert get_metrics() is NULL_REGISTRY
        with cli_telemetry(record=True) as session:
            assert get_metrics() is session.metrics

    def test_files_and_report_survive_a_failure(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        with pytest.raises(RuntimeError):
            with cli_telemetry(
                str(trace_path), str(metrics_path), verbose=True
            ) as session:
                with session.tracer.span("failing"):
                    get_metrics().bump("harness.measurements")
                    raise RuntimeError("boom")
        assert get_tracer() is NULL_TRACER
        events = json.loads(trace_path.read_text(encoding="utf-8"))["traceEvents"]
        assert [e["name"] for e in events] == ["failing"]
        payload = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert payload["metrics"] == {"harness.measurements": 1}
        out, err = capsys.readouterr()
        assert out == ""
        assert "failing" in err and "error=RuntimeError" in err


def _int_only(metrics) -> bool:
    return all(type(value) is int for value in metrics.values())


class TestDeterministicMetrics:
    """The registry holds counters only, so a snapshot repeats exactly."""

    def test_cli_metrics_json_is_byte_identical(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.eval.benchmarks import benchmark_sources

        program = tmp_path / "rbmap.lean"
        program.write_text(benchmark_sources()["rbmap_checkpoint"], encoding="utf-8")
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            assert main([str(program), "--metrics-json", str(path)]) == 0
        capsys.readouterr()
        first, second = (path.read_bytes() for path in paths)
        assert first == second
        assert _int_only(json.loads(first)["metrics"])

    def test_figure9_metrics_json_is_byte_identical(self, tmp_path, capsys):
        from repro.eval.figures import main

        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            assert main([
                "--figure", "9", "--sizes", "default",
                "--metrics-json", str(path),
            ]) == 0
        capsys.readouterr()
        first, second = (path.read_bytes() for path in paths)
        assert first == second
        rows = json.loads(first)["measurements"]
        assert len(rows) == 72
        assert all(_int_only(row["metrics"]) for row in rows)


# ---------------------------------------------------------------------------
# Drift guards: docs/OBSERVABILITY.md vs the code
# ---------------------------------------------------------------------------

_NAMESPACE_TOKEN = re.compile(r"`([a-z]+)\.`")


def documented_namespaces() -> set:
    """Backticked ```ns.``` tokens in the 'Metric namespaces' section."""
    text = OBSERVABILITY_MD.read_text(encoding="utf-8")
    section = text.split("## Metric namespaces", 1)[1].split("\n## ", 1)[0]
    return set(_NAMESPACE_TOKEN.findall(section))


class TestNamespaceDrift:
    def test_observability_md_exists(self):
        assert OBSERVABILITY_MD.is_file(), "docs/OBSERVABILITY.md is missing"

    def test_every_namespace_is_documented(self):
        missing = sorted(set(NAMESPACES) - documented_namespaces())
        assert not missing, (
            "metric namespaces missing from docs/OBSERVABILITY.md's "
            f"'Metric namespaces' section: {missing}"
        )

    def test_every_documented_namespace_exists(self):
        stale = sorted(documented_namespaces() - set(NAMESPACES))
        assert not stale, (
            f"docs/OBSERVABILITY.md documents unknown namespaces: {stale}"
        )

    def test_real_snapshot_stays_inside_namespaces(self):
        source = REGRESSION_BY_NAME["arith_add"].source
        with telemetry_session() as session:
            _measure("arith_add", "default", source, CompilationSession())
        observed = {namespace_of(key) for key in session.metrics.snapshot()}
        assert observed <= set(NAMESPACES)
        # ... and a clean compile+run exercises every namespace except the
        # failure-path `resilience.` one, so a new surface cannot be added
        # without being classified here.
        assert observed == set(NAMESPACES) - {"resilience"}

    def test_fault_injected_run_publishes_resilience_metrics(self):
        from repro.backend.pipeline import run_mlir
        from repro.resilience import FaultPlan, InjectedFault, fault_plan

        source = REGRESSION_BY_NAME["arith_add"].source
        with telemetry_session() as session:
            with fault_plan(FaultPlan.parse(["vm.dispatch:1"])):
                with pytest.raises(InjectedFault):
                    run_mlir(source)
        snapshot = session.metrics.snapshot()
        assert snapshot.get("resilience.faults.injected") == 1
        observed = {namespace_of(key) for key in snapshot}
        assert "resilience" in observed
        assert observed <= set(NAMESPACES)
