"""The traced pipeline: the compiler's public stages called one at a time.

``MlirCompiler.compile``, ``BaselineCompiler`` and ``run_matrix`` are
re-enacted here stage by stage, with a span around each call, so one run
splits into the repository's layers without any timer inside ``src/``.
The workloads check that the staged pipeline produces the same CFG text,
bytecode and matrix fingerprints as the real entry points; a mismatch is
a failure, because the split would then describe a different program.
"""

from __future__ import annotations

import copy
import cProfile
import json
import pstats
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.backend.c_backend import emit_c_source
from repro.backend.incremental import run_incremental_rgn_opt
from repro.backend.lowering_context import LoweringContext
from repro.backend.lp_codegen import generate_lp_module
from repro.backend.lp_to_rgn import lower_lp_to_rgn
from repro.backend.pipeline import (
    LP_FUSION_SPEC,
    RC_VARIANTS,
    build_spec_pipeline,
    rgn_pipeline_spec,
)
from repro.backend.rgn_to_cf import lower_rgn_to_cf
from repro.eval.harness import measurement_options
from repro.fuzz.differential import (
    DEFAULT_BUDGET_STEPS,
    DifferentialFailure,
    full_matrix,
)
from repro.interp.bytecode import (
    FUSED_OPCODES,
    BytecodeFunction,
    VirtualMachine,
    compile_cfg_module,
    compile_rc_program,
    fuse_program,
)
from repro.interp.cfg_interp import CfgInterpreter
from repro.interp.rc_interp import RcInterpreter
from repro.interp.reference import ReferenceInterpreter, normalize
from repro.lambda_pure.lowering import lower_program
from repro.lambda_pure.simplifier import simplify_program
from repro.lean.parser import parse_program
from repro.lean.typecheck import check_program
from repro.rc_opt import insert_optimized_rc
from repro.resilience.budgets import make_execution_budget
from repro.rewrite import pass_manager
from repro.rewrite.registry import pipeline_fingerprint


class Spans:
    """Spans kept in memory: name, start, end and the enclosing span."""

    def __init__(self):
        self.records: List[list] = []
        self._open: List[int] = []
        #: While set, spans are not recorded (an untraced operation runs).
        self.paused = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if self.paused:
            yield
            return
        index = len(self.records)
        parent = self._open[-1] if self._open else -1
        self.records.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.records[index][2] = time.perf_counter()

    def totals(self) -> Dict[str, float]:
        """Summed duration per span name."""
        totals: Dict[str, float] = {}
        for name, start, end, _ in self.records:
            totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name: duration minus child spans."""
        children = [0.0] * len(self.records)
        for name, start, end, parent in self.records:
            if parent >= 0:
                children[parent] += end - start
        result: Dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.records):
            result[name] = result.get(name, 0.0) + (end - start) - children[index]
        return result

    def write_chrome_trace(self, path) -> None:
        """Write the spans as Chrome trace events (loadable in Perfetto)."""
        origin = self.records[0][1] if self.records else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"parent": parent},
            }
            for name, start, end, parent in self.records
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)


@contextmanager
def timed_verifier(spans: Spans) -> Iterator[None]:
    """Time every ``verify`` the pass manager runs as an ``ir.verify`` span.

    The pass manager calls the verifier through its module global, so
    wrapping that name times the real verification in place: pass spans
    then hold the verify spans as children, and self time separates them.
    """
    original = pass_manager.verify

    def verify(module):
        with spans.span("ir.verify"):
            return original(module)

    pass_manager.verify = verify
    try:
        yield
    finally:
        pass_manager.verify = original


class Counters:
    """Deterministic work counts gathered by the staged pipeline."""

    def __init__(self):
        self.values: Dict[str, int] = {}

    def add(self, name: str, amount: int) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def add_pass_statistics(self, pipeline) -> None:
        for stats in pipeline.statistics.values():
            self.add("rewrite.match_attempts", stats.counters.get("match-attempts", 0))
            self.add("rewrite.applications", stats.counters.get("applications", 0))

    def add_run(self, result, vm: Optional[VirtualMachine] = None) -> None:
        """Count one execution: cost categories, heap traffic, VM stream."""
        self.add("gen_cost", result.metrics.total_cost())
        for category, count in result.metrics.counts.items():
            self.add("cost." + category, count)
        heap = result.heap_stats
        self.add("heap.allocations", heap.get("allocations", 0))
        self.add("heap.reuses", heap.get("reuses", 0))
        self.add("heap.peak_live", heap.get("peak_live", 0))
        if vm is not None:
            self.add("vm.instructions", sum(vm.opcode_counts))
            self.add("vm.fused", sum(vm.opcode_counts[op] for op in FUSED_OPCODES))

    def add_bytecode(self, program) -> None:
        self.add("bytecode.static_instrs", program.instruction_count)
        self.add("bytecode.fused_sites", program.fused_sites)


def op_count(module) -> int:
    """Operations in a module, the module op itself excluded."""
    return sum(1 for _ in module.walk()) - 1


def _render(value) -> object:
    if isinstance(value, BytecodeFunction):
        return "fn:" + value.name
    if callable(value):
        return "callable:" + getattr(value, "__name__", type(value).__name__)
    if isinstance(value, (list, tuple)):
        return [_render(item) for item in value]
    if isinstance(value, dict):
        return sorted((repr(k), _render(v)) for k, v in value.items())
    return value


def bytecode_text(program) -> str:
    """A canonical dump of a bytecode program, comparable across compiles."""
    return repr(
        [
            (name, fn.num_params, fn.num_regs, _render(fn.code))
            for name, fn in program.functions.items()
        ]
        + [program.flavor, program.main, program.fused, program.fused_sites]
    )


# ---------------------------------------------------------------------------
# Staged compilation
# ---------------------------------------------------------------------------


def staged_frontend(source: str, spans: Spans):
    with spans.span("lean.parse"):
        surface = parse_program(source)
    with spans.span("lean.typecheck"):
        env = check_program(surface)
    with spans.span("lambda_pure.lower"):
        return lower_program(surface, env)


def _time_passes(pipeline, spans: Spans) -> None:
    """Give every pass of ``pipeline`` a ``transforms.<pass>`` span.

    The wrapper sits on the pass instance, so the real pass manager (and
    the incremental cache driving it) runs unchanged; the verifier runs
    after the pass returns, outside its span.
    """
    for pass_ in pipeline.passes:
        def run(module, run=pass_.run, name="transforms." + pass_.name):
            with spans.span(name):
                return run(module)
        pass_.run = run


def staged_mlir(pure, options, spans: Spans, counters: Counters, session=None):
    """The lp+rgn pipeline of ``MlirCompiler.compile`` on a λpure program
    (the caller's copy is not modified); returns the final CFG module.

    ``session`` plays the role of the compiler's session: it supplies the
    lowering context and, when the options ask for it, the incremental
    rgn-opt cache.
    """
    context = session.lowering_context if session is not None else LoweringContext()
    with spans.span("lambda_pure.simplify"):
        staged = copy.deepcopy(pure)
        if options.run_lambda_simplifier:
            staged = simplify_program(staged, enable_simp_case=options.enable_simp_case)
    with spans.span("rc_opt.rc_insert"):
        rc, _ = insert_optimized_rc(staged, options.rc_mode)
    with spans.span("backend.lp_codegen"):
        lp_module = generate_lp_module(rc, context)
    if options.rc_mode != "naive":
        with spans.span("rc_opt.lp_fusion"):
            pipeline = build_spec_pipeline(LP_FUSION_SPEC, options)
            pipeline.run(lp_module)
        counters.add_pass_statistics(pipeline)
    with spans.span("backend.lp_to_rgn"):
        module = lower_lp_to_rgn(lp_module, context)
    counters.add("ir.rgn_ops", op_count(module))
    if options.run_rgn_optimizations:
        spec = rgn_pipeline_spec(options)
        pipeline = build_spec_pipeline(spec, options)
        _time_passes(pipeline, spans)
        # Self time of this span: pass manager and incremental-cache work.
        with spans.span("backend.rgn_opt"):
            if session is not None and options.incremental_rgn_opt:
                run_incremental_rgn_opt(
                    module, pipeline, session, pipeline_fingerprint(spec)
                )
            else:
                pipeline.run(module)
        counters.add_pass_statistics(pipeline)
    with spans.span("backend.rgn_to_cf"):
        cfg_module = lower_rgn_to_cf(module)
    counters.add("ir.cfg_ops", op_count(cfg_module))
    return cfg_module


def staged_baseline(pure, rc_mode: str, spans: Spans, enable_simplifier: bool = True):
    """The ``BaselineCompiler.compile`` stages; returns (λrc program, C text)."""
    with spans.span("lambda_pure.simplify"):
        optimized = simplify_program(copy.deepcopy(pure)) if enable_simplifier else pure
    with spans.span("rc_opt.rc_insert"):
        rc, _ = insert_optimized_rc(optimized, rc_mode)
    with spans.span("backend.c_emit"):
        c_source = emit_c_source(rc)
    return rc, c_source


def staged_bytecode(compile_unfused: Callable, unit, spans: Spans, counters: Counters):
    """Bytecode compile without fusion, then the fusion peephole, timed apart."""
    with spans.span("interp.bytecode_compile"):
        program = compile_unfused(unit, fuse=False)
    with spans.span("interp.fuse"):
        fuse_program(program)
    counters.add_bytecode(program)
    return program


def run_vm(program, spans: Spans, counters: Counters, span_name: str, **vm_args):
    with spans.span(span_name):
        vm = VirtualMachine(program, **vm_args)
        result = vm.run_main(check_heap=True)
    counters.add_run(result, vm)
    return result


# ---------------------------------------------------------------------------
# Staged differential matrix
# ---------------------------------------------------------------------------


def matrix_fingerprint(result) -> Tuple:
    """The executed-semantics fingerprint ``run_matrix`` compares."""
    return (
        result.metrics.total_cost(),
        tuple(sorted(result.metrics.counts.items())),
        tuple(sorted(result.heap_stats.items())),
        tuple(result.output),
    )


def staged_matrix(source: str, session, spans: Spans, counters: Counters):
    """``run_matrix(source, session=session)`` with the full matrix, stage
    by stage; returns ``(reference value, {label: (value, fingerprint)})``.

    Raises :class:`DifferentialFailure` on the violations ``run_matrix``
    raises on.  One session serves the whole matrix, as in ``run_matrix``.
    """
    def budget():
        return make_execution_budget(None, DEFAULT_BUDGET_STEPS)

    pure = staged_frontend(source, spans)
    with spans.span("fuzz.reference"):
        reference = normalize(ReferenceInterpreter(copy.deepcopy(pure), budget=budget()).run_main())
    runs: Dict[str, Tuple[object, Tuple]] = {}

    def check(label, result):
        if result.value != reference:
            raise DifferentialFailure(
                source, f"{label}: value {result.value!r} != reference {reference!r}"
            )
        if result.heap_stats.get("allocations") != result.heap_stats.get("frees"):
            raise DifferentialFailure(source, f"{label}: heap imbalance")
        runs.setdefault(label, (result.value, matrix_fingerprint(result)))

    for rc_variant in RC_VARIANTS:
        for engine in ("vm", "tree"):
            with spans.span("fuzz.baseline_compile"):
                rc, _ = staged_baseline(copy.deepcopy(pure), rc_variant[len("rc-"):], spans)
            if engine == "tree":
                with spans.span("fuzz.tree_exec"):
                    result = RcInterpreter(rc, budget=budget()).run_main(check_heap=True)
            else:
                program = staged_bytecode(compile_rc_program, rc, spans, counters)
                result = run_vm(program, spans, counters, "fuzz.vm_exec", budget=budget())
            check(f"baseline/{rc_variant}/{engine}", result)

    fingerprints: Dict[str, Tuple[str, Tuple]] = {}
    for config in full_matrix():
        options = measurement_options(
            config.rc_variant,
            rewrite_engine=config.rewrite_engine,
            execution_engine=config.execution_engine,
            dispatch=config.dispatch,
        )
        with spans.span("fuzz.mlir_compile"):
            cfg_module = staged_mlir(copy.deepcopy(pure), options, spans, counters, session)
        if config.execution_engine == "tree":
            with spans.span("fuzz.tree_exec"):
                result = CfgInterpreter(cfg_module, budget=budget()).run_main(check_heap=True)
        else:
            program = staged_bytecode(compile_cfg_module, cfg_module, spans, counters)
            result = run_vm(
                program, spans, counters, "fuzz.vm_exec",
                dispatch=config.dispatch, budget=budget(),
            )
        check(config.label, result)
        fingerprint = matrix_fingerprint(result)
        runs[config.label] = (result.value, fingerprint)
        seen = fingerprints.setdefault(config.rc_variant, (config.label, fingerprint))
        if seen[1] != fingerprint:
            raise DifferentialFailure(
                source, f"metric fingerprints diverge within {config.rc_variant}"
            )
    return reference, runs


# ---------------------------------------------------------------------------
# Profile split
# ---------------------------------------------------------------------------

#: cProfile self time is grouped by the file of each function.
PROFILE_GROUPS = (
    ("profile.interp.bytecode", "repro/interp/bytecode.py"),
    ("profile.runtime.objects", "repro/runtime/objects.py"),
    ("profile.runtime.builtins", "repro/runtime/builtins.py"),
    ("profile.runtime.closures", "repro/runtime/closures.py"),
)


def profile_shares(body: Callable[[], None]) -> Dict[str, float]:
    """Run ``body`` under cProfile; self-time share per module group."""
    profiler = cProfile.Profile()
    profiler.runcall(body)
    stats = pstats.Stats(profiler).stats
    total = 0.0
    shares = {name: 0.0 for name, _ in PROFILE_GROUPS}
    shares["profile.c_builtins"] = 0.0
    for (filename, _, _), (_, _, self_time, _, _) in stats.items():
        total += self_time
        path = filename.replace("\\", "/")
        if filename == "~":
            shares["profile.c_builtins"] += self_time
            continue
        for name, suffix in PROFILE_GROUPS:
            if path.endswith(suffix):
                shares[name] += self_time
                break
    return {name: (value / total if total else 0.0) for name, value in shares.items()}
