"""End-to-end compilation pipelines (Figure 3) and the variant matrix used by
the evaluation (Figures 9 and 10).

Baseline pipeline ("leanc")
    mini-LEAN → λpure → λpure simplifier → λrc → (C source artifact)
    → λrc interpreter.

New pipeline ("lp + rgn")
    mini-LEAN → λpure → [optional λpure simplifier] → λrc → lp dialect
    → rgn dialect → [optional rgn optimisations] → flat CFG → CFG interpreter.

Variants (Figure 10):
    * ``simplifier`` — λpure simplifier on, rgn optimisations off,
    * ``rgn``        — λpure simplifier off (LEAN's ``simp_case`` disabled),
      rgn optimisations on,
    * ``none``       — both off.

RC-optimisation ablation variants (the :mod:`repro.rc_opt` subsystem, which
runs between RC insertion and backend lowering):
    * ``rc-naive``     — the seed owned-arguments discipline,
    * ``rc-opt``       — borrow inference + dup/drop fusion,
    * ``rc-opt+reuse`` — ``rc-opt`` plus constructor-reuse analysis.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from ..dialects.builtin import ModuleOp
from ..interp.bytecode import (
    DISPATCH_MODES,
    EXECUTION_ENGINES,
    BytecodeError,
    BytecodeProgram,
    VirtualMachine,
    compile_cfg_module,
    compile_rc_program,
)
from ..interp.metrics import RunResult
from ..lambda_pure.ir import Program as PureProgram
from ..lambda_pure.lowering import lower_program
from ..lambda_pure.simplifier import simplify_program
from ..ir.printer import print_module
from ..lean.parser import parse_program
from ..lean.typecheck import check_program
from ..rc_opt import RcOptReport, insert_optimized_rc
from ..record import Record
from ..resilience.budgets import ExecutionBudget, make_execution_budget
from ..resilience.faults import InjectedFault, fault_hit
from ..rewrite.pass_manager import PassManager
from ..rewrite.registry import build_pipeline, pipeline_fingerprint
from ..telemetry import (
    PassInstrumentation,
    PrintIRInstrumentation,
    get_metrics,
    get_tracer,
    metric_component,
)
from ..transforms.canonicalize import canonicalization_patterns
from .lowering_context import LoweringContext
from .lp_codegen import generate_lp_module
from .lp_to_rgn import lower_lp_to_rgn
from .rgn_to_cf import lower_rgn_to_cf


class PipelineOptions(Record):
    """Configuration knobs of the lp+rgn pipeline.

    Every knob is a class-attribute default; the constructor takes keyword
    overrides of them and rejects unknown names.
    """

    #: Run the λpure simplifier before reference-count insertion.
    run_lambda_simplifier: bool = True
    #: Keep LEAN's ``simp_case`` sub-pass enabled inside the simplifier.
    enable_simp_case: bool = True
    #: Run the rgn optimisation pipeline between lp→rgn and rgn→cf.
    run_rgn_optimizations: bool = True
    #: Individual rgn passes (used by the ablation benchmarks).
    enable_dead_region_elimination: bool = True
    enable_region_gvn: bool = True
    enable_case_elimination: bool = True
    enable_common_branch_elimination: bool = True
    enable_constant_fold: bool = True
    enable_cse: bool = True
    #: RC optimisation level applied between RC insertion and lowering
    #: ("naive", "opt" or "opt+reuse"; see :mod:`repro.rc_opt`).
    rc_mode: str = "naive"
    #: Pattern-rewrite fixpoint engine: "worklist" (incremental, the
    #: default) or "rescan" (the quadratic seed driver, kept for the
    #: compile-time differential benchmarks).
    rewrite_engine: str = "worklist"
    #: Execution engine for compiled modules: "vm" (register-based
    #: bytecode, the default) or "tree" (the tree-walking interpreters,
    #: kept as differential oracles).
    execution_engine: str = "vm"
    #: VM dispatch mode: "threaded" (closure-per-instruction direct
    #: threading, the default) or "switch" (the tuple-decoding loop, kept
    #: as the in-VM oracle).  Ignored by the tree engine.
    dispatch: str = "threaded"
    #: Run the superinstruction fusion peephole over compiled bytecode.
    #: Fused instructions charge exactly the unfused events, so this only
    #: changes execution speed, never metrics or results.
    superinstructions: bool = True
    #: Verify the IR after every pass (slower; on by default in tests).
    verify_each: bool = True
    #: Print per-pass wall time and rewrite counters while compiling.
    verbose_passes: bool = False
    #: Pass names whose output IR is printed after they run
    #: (``--print-ir-after=<pass>``, MLIR's ``--mlir-print-ir-after``).
    print_ir_after: Tuple[str, ...] = ()
    #: Print the module after every pass (``--print-ir-after-all``).
    print_ir_after_all: bool = False
    #: On a pass failure (pattern non-convergence or a ``verify_each``
    #: rejection), dump the offending function's IR and the pass name.
    print_ir_on_failure: bool = True
    #: Serve rgn-opt results from the session's fingerprint-keyed
    #: per-function cache (no effect without a session; see
    #: :mod:`repro.backend.incremental`).
    incremental_rgn_opt: bool = True
    #: Pipeline points whose textual IR to capture into
    #: ``CompilationArtifacts.captured_ir``: any of "lp" (after lp
    #: codegen/fusion), "rgn" (entering rgn-opt), "rgn-opt" (leaving it).
    #: The lowerings mutate modules in place, so these snapshots cannot be
    #: reconstructed after the fact.
    capture_ir: Tuple[str, ...] = ()
    #: Directory to write crash reproducer bundles into when a pass fails
    #: (None disables bundle writing; see :mod:`repro.resilience.bundle`).
    crash_bundle_dir: Optional[str] = None
    #: Graceful-degradation ladders: VM fault → tree-walker re-execution,
    #: corrupt cache entry → recompute (see ``docs/RESILIENCE.md``).
    enable_fallbacks: bool = True
    #: Execution budget applied when running compiled programs: wall-clock
    #: seconds and/or control-transfer steps (None = unbounded).  A tripped
    #: budget raises :class:`~repro.resilience.budgets.
    #: ExecutionBudgetExceeded` instead of hanging.
    execution_budget_seconds: Optional[float] = None
    execution_budget_steps: Optional[int] = None

    _fields = (
        "run_lambda_simplifier", "enable_simp_case", "run_rgn_optimizations",
        "enable_dead_region_elimination", "enable_region_gvn",
        "enable_case_elimination", "enable_common_branch_elimination",
        "enable_constant_fold", "enable_cse", "rc_mode", "rewrite_engine",
        "execution_engine", "dispatch", "superinstructions", "verify_each",
        "verbose_passes", "print_ir_after", "print_ir_after_all",
        "print_ir_on_failure", "incremental_rgn_opt", "capture_ir",
        "crash_bundle_dir", "enable_fallbacks", "execution_budget_seconds",
        "execution_budget_steps",
    )

    def __init__(self, **overrides):
        for name, value in overrides.items():
            if name not in self._fields:
                raise TypeError(
                    f"PipelineOptions() got an unexpected keyword argument "
                    f"{name!r}"
                )
            setattr(self, name, value)

    def execution_budget(self) -> Optional[ExecutionBudget]:
        """A fresh :class:`ExecutionBudget` for one run, or None."""
        return make_execution_budget(
            self.execution_budget_seconds, self.execution_budget_steps
        )

    @classmethod
    def variant(cls, name: str) -> "PipelineOptions":
        """The variants of Figure 10 and of the RC-optimisation ablation."""
        if name == "simplifier":
            return cls(run_lambda_simplifier=True, run_rgn_optimizations=False)
        if name == "rgn":
            return cls(run_lambda_simplifier=False, run_rgn_optimizations=True)
        if name == "none":
            return cls(run_lambda_simplifier=False, run_rgn_optimizations=False)
        if name in RC_VARIANTS:
            return cls(rc_mode=name[len("rc-"):])
        raise ValueError(f"unknown pipeline variant {name!r}")


FIGURE10_VARIANTS = ("simplifier", "rgn", "none")
RC_VARIANTS = ("rc-naive", "rc-opt", "rc-opt+reuse")


def _check_execution_engine(engine: str) -> None:
    if engine not in EXECUTION_ENGINES:
        raise ValueError(
            f"unknown execution engine {engine!r} (expected {EXECUTION_ENGINES})"
        )


def _check_dispatch(dispatch: str) -> None:
    if dispatch not in DISPATCH_MODES:
        raise ValueError(
            f"unknown dispatch mode {dispatch!r} (expected {DISPATCH_MODES})"
        )


class CompilationArtifacts(Record):
    """Everything produced while compiling one program."""

    _fields = (
        "surface_source", "pure_program", "rc_program", "lp_module",
        "cfg_module", "c_source", "pass_statistics", "rc_report",
        "phase_timings", "module_op_counts", "captured_ir",
    )

    def __init__(
        self,
        surface_source: str,
        pure_program: PureProgram,
        rc_program: PureProgram,
        lp_module: Optional[ModuleOp] = None,
        cfg_module: Optional[ModuleOp] = None,
        c_source: Optional[str] = None,
        pass_statistics: Optional[Dict[str, Dict[str, int]]] = None,
        rc_report: Optional[RcOptReport] = None,
        phase_timings: Optional[Dict[str, float]] = None,
        module_op_counts: Optional[Dict[str, int]] = None,
        captured_ir: Optional[Dict[str, str]] = None,
    ):
        self.surface_source = surface_source
        self.pure_program = pure_program
        self.rc_program = rc_program
        self.lp_module = lp_module
        self.cfg_module = cfg_module
        self.c_source = c_source
        self.pass_statistics = (
            {} if pass_statistics is None else pass_statistics
        )
        self.rc_report = rc_report
        #: Wall time per compilation phase in seconds (frontend, simplify,
        #: rc-insert, lp-codegen, lp-fusion, lp-to-rgn, rgn-opt, rgn-to-cf /
        #: c-emit), populated by the compilers for
        #: :mod:`repro.eval.compile_bench`.
        self.phase_timings = {} if phase_timings is None else phase_timings
        #: Module op counts sampled at pipeline points ("lp" after codegen,
        #: "rgn" entering the rgn optimisations).  The lowerings mutate the
        #: module in place, so these cannot be recomputed afterwards.
        self.module_op_counts = (
            {} if module_op_counts is None else module_op_counts
        )
        #: Textual IR snapshots requested via ``PipelineOptions.capture_ir``.
        self.captured_ir = {} if captured_ir is None else captured_ir


class Frontend:
    """Shared frontend: parse, type check, lower to λpure."""

    @staticmethod
    def to_pure(source: str) -> PureProgram:
        surface = parse_program(source)
        env = check_program(surface)
        return lower_program(surface, env)


class _FrontendEntry:
    """One source's row in the session cache: its λpure program and the λrc
    lowerings of it, keyed by (``run_lambda_simplifier``,
    ``enable_simp_case``, ``rc_mode``)."""

    __slots__ = ("pure", "rc")

    def __init__(self, pure: PureProgram):
        self.pure = pure
        self.rc: Dict[tuple, Tuple[PureProgram, RcOptReport]] = {}


class CompilationSession:
    """Shares frontend and lowering work across compilations.

    The eval harness compiles every benchmark through up to nine pipeline
    variants; without a session each run re-parses, re-typechecks and
    re-lowers the identical source.  A session adds a *content-keyed*
    frontend cache: the first compile of a source pays the full frontend,
    later compiles of the same text share the memoised λpure program.
    λpure and λrc programs are persistent values — every pass over them
    (simplifier, RC insertion, fusion, reuse) builds a new program and
    leaves its input untouched — so sharing by reference is safe and
    cached and uncached compiles produce byte-identical IR.

    The same cache entry memoises the **λrc lowering** of its source, keyed
    by (``run_lambda_simplifier``, ``enable_simp_case``, ``rc_mode``): the
    baseline and lp+rgn pipelines at one rc mode share one simplifier run
    and one RC insertion.  These entries live and die with their source's
    frontend entry (the ``cache.frontend`` corruption ladder drops both);
    hit/miss counts publish as ``session.rc.hits`` / ``.misses``.

    The prelude itself is shared one level deeper: the builtin typing
    tables are resolved once per process (see
    :func:`repro.lean.typecheck._prelude_tables`), so even cache *misses*
    skip the prelude re-derivation.  The session also owns one
    :class:`LoweringContext`, so interned backend types survive across
    programs.

    Alongside the frontend cache the session memoises *compiled bytecode*
    per module identity: executing the same compiled module repeatedly
    (drivers, REPL-style runs, the multi-run benchmarks) pays the
    bytecode translation once.  Entries hold a strong reference to their
    module, so an ``id`` can never be recycled while its cache row lives.

    The last cache drives **incremental recompilation**: optimised
    per-function rgn IR keyed by (pipeline fingerprint, structural body
    fingerprint) — see :mod:`repro.backend.incremental`.  Recompiling a
    module where one function changed re-runs the rgn-opt pipeline only on
    that function; every other function splices in its cached optimised
    clone.

    Sessions are cheap, single-process objects; the process-sharded harness
    gives each worker its own.
    """

    def __init__(self):
        self._pure_cache: Dict[str, _FrontendEntry] = {}
        self._bytecode_cache: Dict[tuple, tuple] = {}
        self._rgn_opt_cache: Dict[tuple, object] = {}
        self.lowering_context = LoweringContext()
        self.hits = 0
        self.misses = 0
        self.bytecode_hits = 0
        self.bytecode_misses = 0
        self.incremental_hits = 0
        self.incremental_misses = 0
        self.rc_hits = 0
        self.rc_misses = 0

    def frontend(self, source: str) -> PureProgram:
        """λpure program for ``source``, served from the cache when possible.

        The cached program itself is returned: λpure is persistent, and no
        pass modifies its input.
        """
        cached = self._pure_cache.get(source)
        hit = cached is not None
        if hit:
            try:
                fault_hit("cache.frontend")
            except InjectedFault:
                # A corrupt cached entry: quarantine it (and the λrc
                # lowerings it holds) and fall back to a clean re-parse
                # (counted, never silent).
                del self._pure_cache[source]
                cached = None
                hit = False
                registry = get_metrics()
                if registry.enabled:
                    registry.bump("resilience.recovered.frontend_cache")
        with get_tracer().span("session:frontend", category="session", hit=hit):
            if cached is None:
                self.misses += 1
                cached = _FrontendEntry(Frontend.to_pure(source))
                self._pure_cache[source] = cached
            else:
                self.hits += 1
            registry = get_metrics()
            if registry.enabled:
                registry.bump(
                    "session.frontend.hits" if hit else "session.frontend.misses"
                )
            return cached.pure

    def rc_cached(
        self, source: str, key: tuple
    ) -> Optional[Tuple[PureProgram, RcOptReport]]:
        """Cached ``(λrc program, report)`` of ``source`` for ``key``, or
        None (counts the miss).  Call after :meth:`frontend` of ``source``.

        ``key`` is (``run_lambda_simplifier``, ``enable_simp_case``,
        ``rc_mode``); hit/miss counts publish as ``session.rc.hits`` /
        ``.misses``.
        """
        lowered = self._pure_cache[source].rc.get(key)
        registry = get_metrics()
        if lowered is not None:
            self.rc_hits += 1
            if registry.enabled:
                registry.bump("session.rc.hits")
            return lowered
        self.rc_misses += 1
        if registry.enabled:
            registry.bump("session.rc.misses")
        return None

    def rc_store(
        self, source: str, key: tuple, lowered: Tuple[PureProgram, RcOptReport]
    ) -> None:
        """Remember the λrc lowering of ``source`` for ``key`` in its
        frontend entry."""
        self._pure_cache[source].rc[key] = lowered

    def bytecode_for(
        self, module: ModuleOp, *, superinstructions: bool = True
    ) -> BytecodeProgram:
        """Bytecode for a CFG-form ``module``, compiled once per (module,
        fusion flag)."""
        return self._cached_bytecode(
            module, compile_cfg_module, superinstructions
        )

    def rc_bytecode_for(
        self, program: PureProgram, *, superinstructions: bool = True
    ) -> BytecodeProgram:
        """Bytecode for a λrc ``program``, compiled once per (program,
        fusion flag)."""
        return self._cached_bytecode(
            program, compile_rc_program, superinstructions
        )

    #: Bound on cached bytecode rows.  Each row pins its module alive (the
    #: strong reference is what keeps ``id`` keys valid), and compile-only
    #: workloads never hit the cache — without a bound a long-lived session
    #: would retain every module it ever executed.
    BYTECODE_CACHE_LIMIT = 128

    def _cached_bytecode(
        self, source: object, compiler, superinstructions: bool
    ) -> BytecodeProgram:
        # Keyed on (module identity, fusion flag): fusion rewrites the
        # bytecode, while the dispatch mode is a property of the
        # VirtualMachine (its threaded closures live there), so both
        # dispatch modes execute one program.
        key = (id(source), superinstructions)
        entry = self._bytecode_cache.get(key)
        registry = get_metrics()
        if entry is not None and entry[0] is source:
            try:
                fault_hit("cache.bytecode")
            except InjectedFault:
                # Corrupt cached bytecode: drop the row and recompile.
                del self._bytecode_cache[key]
                if registry.enabled:
                    registry.bump("resilience.recovered.bytecode_cache")
                entry = None
        if entry is not None and entry[0] is source:
            self.bytecode_hits += 1
            if registry.enabled:
                registry.bump("session.bytecode.hits")
            return entry[1]
        self.bytecode_misses += 1
        if registry.enabled:
            registry.bump("session.bytecode.misses")
        bytecode = compiler(source, fuse=superinstructions)
        while len(self._bytecode_cache) >= self.BYTECODE_CACHE_LIMIT:
            # FIFO eviction (dicts preserve insertion order): repeated
            # execution of a recent module stays cached, ancient rows go.
            self._bytecode_cache.pop(next(iter(self._bytecode_cache)))
        self._bytecode_cache[key] = (source, bytecode)
        return bytecode

    #: Bound on cached optimised functions.  Each row holds a detached
    #: clone of one function body; FIFO eviction (as for bytecode) keeps a
    #: long-lived session from retaining every function it ever optimised.
    RGN_OPT_CACHE_LIMIT = 512

    def rgn_opt_cached(self, key: tuple):
        """Cached optimised function for ``key``, or None (counts the miss).

        Keys pair the pipeline fingerprint with the function's structural
        body fingerprint (see :mod:`repro.backend.incremental`); hit/miss
        counts publish as ``session.incremental.hits`` / ``.misses``.
        """
        entry = self._rgn_opt_cache.get(key)
        registry = get_metrics()
        if entry is not None:
            self.incremental_hits += 1
            if registry.enabled:
                registry.bump("session.incremental.hits")
            return entry
        self.incremental_misses += 1
        if registry.enabled:
            registry.bump("session.incremental.misses")
        return None

    def rgn_opt_store(self, key: tuple, func) -> None:
        """Remember the optimised (detached, cloned) function for ``key``."""
        while len(self._rgn_opt_cache) >= self.RGN_OPT_CACHE_LIMIT:
            self._rgn_opt_cache.pop(next(iter(self._rgn_opt_cache)))
        self._rgn_opt_cache[key] = func

    def rgn_opt_quarantine(self, key: tuple) -> None:
        """Evict a corrupt/divergent cached function (clean recompile next).

        Counted as ``resilience.quarantine.incremental`` — the degradation
        ladder of the incremental rgn-opt cache (see
        :mod:`repro.backend.incremental`).
        """
        self._rgn_opt_cache.pop(key, None)
        registry = get_metrics()
        if registry.enabled:
            registry.bump("resilience.quarantine.incremental")

    @property
    def stats(self) -> Dict[str, int]:
        """Hit/miss accounting (one entry per distinct source cached)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._pure_cache),
            "bytecode_hits": self.bytecode_hits,
            "bytecode_misses": self.bytecode_misses,
            "bytecode_entries": len(self._bytecode_cache),
            "incremental_hits": self.incremental_hits,
            "incremental_misses": self.incremental_misses,
            "incremental_entries": len(self._rgn_opt_cache),
            "rc_hits": self.rc_hits,
            "rc_misses": self.rc_misses,
        }


class PhaseTimer:
    """Per-phase compile bookkeeping shared by both compilers.

    One object per compile owns the ``phase_timings`` dict the
    :class:`CompilationArtifacts` carry; :meth:`phase` accumulates the
    wall time of one phase, opens a telemetry span (``phase:<name>``) and
    publishes ``pipeline.phase.<name>.seconds`` into the active metrics
    registry.  Replaces the timing bookkeeping both
    :class:`BaselineCompiler` and :class:`MlirCompiler` used to carry
    separately.
    """

    __slots__ = ("timings",)

    def __init__(self):
        self.timings: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        with get_tracer().span("phase:" + name, category="phase"):
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                self.timings[name] = self.timings.get(name, 0.0) + elapsed
                registry = get_metrics()
                if registry.enabled:
                    registry.observe(
                        "pipeline.phase." + metric_component(name) + ".seconds",
                        elapsed,
                    )


def lower_to_rc(
    source: str,
    pure: PureProgram,
    phases: PhaseTimer,
    session: Optional[CompilationSession],
    *,
    run_simplifier: bool,
    enable_simp_case: bool,
    rc_mode: str,
) -> Tuple[PureProgram, RcOptReport]:
    """λpure → [simplifier] → λrc, shared by both compilers.

    With a session the result is memoised per (source, simplifier flags, rc
    mode); a hit runs neither the ``simplify`` nor the ``rc-insert`` phase.
    """
    key = (run_simplifier, enable_simp_case, rc_mode)
    if session is not None:
        cached = session.rc_cached(source, key)
        if cached is not None:
            return cached
    with phases.phase("simplify"):
        staged = (
            simplify_program(pure, enable_simp_case=enable_simp_case)
            if run_simplifier
            else pure
        )
    with phases.phase("rc-insert"):
        lowered = insert_optimized_rc(staged, rc_mode)
    if session is not None:
        session.rc_store(source, key, lowered)
    return lowered


def pass_instrumentations(options: PipelineOptions) -> List[PassInstrumentation]:
    """The pass-instrumentation stack implied by ``options``."""
    if not (
        options.print_ir_after
        or options.print_ir_after_all
        or options.print_ir_on_failure
    ):
        return []
    return [
        PrintIRInstrumentation(
            print_after=options.print_ir_after,
            print_after_all=options.print_ir_after_all,
            print_on_failure=options.print_ir_on_failure,
        )
    ]


def canonicalization_drain_patterns(options: PipelineOptions) -> List:
    """The unified canonicalisation pattern set for ``options``.

    Each ablation flag removes one pattern family from the drain instead of
    removing a pipeline stage, so the pipeline shape (and hence the seeding
    cost) is independent of the ablation configuration.
    """
    return canonicalization_patterns(
        constant_fold=options.enable_constant_fold,
        case_elimination=options.enable_case_elimination,
        common_branch=options.enable_common_branch_elimination,
        dead_region=options.enable_dead_region_elimination,
    )


#: Spec of the lp-level cleanup pipeline run after codegen for the
#: optimised RC modes (the SSA twin of dup/drop fusion).
LP_FUSION_SPEC = "lp-rc-fusion"

#: The ablation flag of ``PipelineOptions`` -> the ``canonicalize`` pass's
#: ``ablate=`` choice it corresponds to.
_ABLATION_FLAGS = (
    ("enable_constant_fold", "constant-fold"),
    ("enable_case_elimination", "case-elim"),
    ("enable_common_branch_elimination", "common-branch"),
    ("enable_dead_region_elimination", "dead-region"),
)


def rgn_pipeline_spec(options: PipelineOptions) -> str:
    """The textual pipeline spec of the rgn optimisation pipeline.

    The default configuration reads ``cse,region-gvn,canonicalize,dce`` —
    runnable verbatim through ``python -m repro.opt``.  Ablation flags map
    onto ``canonicalize{ablate=...}`` options (dropping a pattern family
    from the drain rather than a pipeline stage), and a fully-ablated drain
    drops the ``canonicalize`` element entirely.
    """
    parts = []
    if options.enable_cse:
        parts.append("cse")
    if options.enable_region_gvn:
        parts.append("region-gvn")
    drain_options = [
        f"ablate={choice}"
        for flag, choice in _ABLATION_FLAGS
        if not getattr(options, flag)
    ]
    if len(drain_options) < len(_ABLATION_FLAGS):
        if options.rewrite_engine != "worklist":
            drain_options.append(f"engine={options.rewrite_engine}")
        suffix = "{" + ",".join(drain_options) + "}" if drain_options else ""
        parts.append("canonicalize" + suffix)
    parts.append("dce")
    return ",".join(parts)


def build_spec_pipeline(spec: str, options: PipelineOptions) -> PassManager:
    """Build the pipeline of ``spec`` under the knobs of ``options``."""
    crash_handler = None
    if options.crash_bundle_dir is not None:
        from ..resilience.bundle import CrashBundleWriter

        crash_handler = CrashBundleWriter(options.crash_bundle_dir)
    return build_pipeline(
        spec,
        verify_each=options.verify_each,
        verbose=options.verbose_passes,
        instrumentations=pass_instrumentations(options),
        crash_handler=crash_handler,
    )


def rgn_optimization_pipeline(options: PipelineOptions) -> PassManager:
    """The rgn optimisation pass pipeline of the new backend (§IV-B).

    Local simplification is one *canonicalisation drain* — the union of
    constant folding, case elimination (incl. case-of-known-constructor),
    common-branch elimination and dead region elimination — driven to
    fixpoint by the worklist engine with a single per-function seed, instead
    of one fixpoint (and one seed) per pattern family.  The drain runs once,
    after CSE / region GVN, because region GVN is what exposes the
    identical-operand select/switch folds; GVN itself numbers structurally,
    so it does not need folding first.  (Deliberate tradeoff of the single
    seed: constants materialised by the drain are not re-CSE'd — duplicate
    constants are harmless to the cost model, and the final DCE still drops
    unused ones.)

    Built declaratively from :func:`rgn_pipeline_spec` through the pass
    registry, so the in-compiler pipeline and a ``repro.opt`` run of the
    same spec are the same object construction path.
    """
    return build_spec_pipeline(rgn_pipeline_spec(options), options)


class BaselineCompiler:
    """The baseline ("leanc") pipeline: λrc executed directly, C emitted as
    an artifact."""

    def __init__(
        self,
        *,
        enable_simplifier: bool = True,
        rc_mode: str = "naive",
        session: Optional[CompilationSession] = None,
        execution_engine: str = "vm",
        dispatch: str = "threaded",
        superinstructions: bool = True,
        enable_fallbacks: bool = True,
        execution_budget_seconds: Optional[float] = None,
        execution_budget_steps: Optional[int] = None,
    ):
        _check_execution_engine(execution_engine)
        _check_dispatch(dispatch)
        self.enable_simplifier = enable_simplifier
        self.rc_mode = rc_mode
        self.session = session
        self.execution_engine = execution_engine
        self.dispatch = dispatch
        self.superinstructions = superinstructions
        self.enable_fallbacks = enable_fallbacks
        self.execution_budget_seconds = execution_budget_seconds
        self.execution_budget_steps = execution_budget_steps

    def _execution_budget(self) -> Optional[ExecutionBudget]:
        return make_execution_budget(
            self.execution_budget_seconds, self.execution_budget_steps
        )

    def compile(self, source: str) -> CompilationArtifacts:
        phases = PhaseTimer()
        with get_tracer().span(
            "compile", category="pipeline", pipeline="baseline",
            rc_mode=self.rc_mode,
        ):
            with phases.phase("frontend"):
                pure = (
                    self.session.frontend(source)
                    if self.session is not None
                    else Frontend.to_pure(source)
                )
            rc, rc_report = lower_to_rc(
                source, pure, phases, self.session,
                run_simplifier=self.enable_simplifier,
                enable_simp_case=True,
                rc_mode=self.rc_mode,
            )
            with phases.phase("c-emit"):
                from .c_backend import emit_c_source

                c_source = emit_c_source(rc)
        return CompilationArtifacts(
            surface_source=source,
            pure_program=pure,
            rc_program=rc,
            c_source=c_source,
            rc_report=rc_report,
            phase_timings=phases.timings,
        )

    def run(self, source: str, *, check_heap: bool = True) -> RunResult:
        artifacts = self.compile(source)
        return self.execute(artifacts.rc_program, check_heap=check_heap)

    def execute(self, rc_program: PureProgram, *, check_heap: bool = True) -> RunResult:
        """Execute a compiled λrc program with the configured engine.

        A VM-side fault (injected ``vm.dispatch`` or a bytecode bug) falls
        back to the λrc tree-walker — the differential oracle, so figure
        output and metrics are byte-identical — counted as
        ``resilience.fallback.vm_to_tree``.  Budget trips are *not* a VM
        fault and propagate: the tree-walker would only hang longer.
        """
        if self.execution_engine == "tree":
            return self._run_tree(rc_program, check_heap)
        bytecode = (
            self.session.rc_bytecode_for(
                rc_program, superinstructions=self.superinstructions
            )
            if self.session is not None
            else compile_rc_program(rc_program, fuse=self.superinstructions)
        )
        try:
            return VirtualMachine(
                bytecode, dispatch=self.dispatch,
                budget=self._execution_budget(),
            ).run_main(check_heap=check_heap)
        except (InjectedFault, BytecodeError):
            if not self.enable_fallbacks:
                raise
            registry = get_metrics()
            if registry.enabled:
                registry.bump("resilience.fallback.vm_to_tree")
            return self._run_tree(rc_program, check_heap)

    def _run_tree(self, rc_program: PureProgram, check_heap: bool) -> RunResult:
        """Run ``rc_program`` on the λrc tree-walker."""
        from ..interp.rc_interp import RcInterpreter

        return RcInterpreter(
            rc_program, budget=self._execution_budget()
        ).run_main(check_heap=check_heap)


class MlirCompiler:
    """The new pipeline: λrc → lp → rgn → CFG."""

    def __init__(
        self,
        options: Optional[PipelineOptions] = None,
        *,
        session: Optional[CompilationSession] = None,
    ):
        self.options = options if options is not None else PipelineOptions()
        _check_execution_engine(self.options.execution_engine)
        _check_dispatch(self.options.dispatch)
        self.session = session

    def compile(self, source: str) -> CompilationArtifacts:
        options = self.options
        session = self.session
        lowering_context = (
            session.lowering_context if session is not None else LoweringContext()
        )
        phases = PhaseTimer()
        with get_tracer().span(
            "compile", category="pipeline", pipeline="lp+rgn",
            rc_mode=options.rc_mode,
            rewrite_engine=options.rewrite_engine,
        ):
            with phases.phase("frontend"):
                pure = (
                    session.frontend(source)
                    if session is not None
                    else Frontend.to_pure(source)
                )
            rc, rc_report = lower_to_rc(
                source, pure, phases, session,
                run_simplifier=options.run_lambda_simplifier,
                enable_simp_case=options.enable_simp_case,
                rc_mode=options.rc_mode,
            )
            with phases.phase("lp-codegen"):
                lp_module = generate_lp_module(rc, lowering_context)
            artifacts = CompilationArtifacts(
                surface_source=source,
                pure_program=pure,
                rc_program=rc,
                lp_module=lp_module,
                rc_report=rc_report,
                phase_timings=phases.timings,
            )
            artifacts.module_op_counts["lp"] = sum(1 for _ in lp_module.walk()) - 1
            if options.rc_mode != "naive":
                # The SSA twin of dup/drop fusion: catches pairs exposed by
                # lowering λrc trees into lp blocks.
                with phases.phase("lp-fusion"):
                    lp_fusion = build_spec_pipeline(LP_FUSION_SPEC, options)
                    lp_fusion.run(lp_module)
                artifacts.pass_statistics.update(
                    (name, stats.counters)
                    for name, stats in lp_fusion.statistics.items()
                )
            if "lp" in options.capture_ir:
                artifacts.captured_ir["lp"] = print_module(lp_module)
            with phases.phase("lp-to-rgn"):
                cfg_module = lower_lp_to_rgn(lp_module, lowering_context)
            artifacts.module_op_counts["rgn"] = sum(1 for _ in cfg_module.walk()) - 1
            if "rgn" in options.capture_ir:
                artifacts.captured_ir["rgn"] = print_module(cfg_module)
            if options.run_rgn_optimizations:
                spec = rgn_pipeline_spec(options)
                with phases.phase("rgn-opt"):
                    pipeline = build_spec_pipeline(spec, options)
                    if session is not None and options.incremental_rgn_opt:
                        from .incremental import run_incremental_rgn_opt

                        run_incremental_rgn_opt(
                            cfg_module,
                            pipeline,
                            session,
                            pipeline_fingerprint(spec),
                        )
                    else:
                        pipeline.run(cfg_module)
                artifacts.pass_statistics.update(
                    (name, stats.counters)
                    for name, stats in pipeline.statistics.items()
                )
                if "rgn-opt" in options.capture_ir:
                    artifacts.captured_ir["rgn-opt"] = print_module(cfg_module)
            with phases.phase("rgn-to-cf"):
                cfg_module = lower_rgn_to_cf(cfg_module)
        artifacts.cfg_module = cfg_module
        return artifacts

    def run(self, source: str, *, check_heap: bool = True) -> RunResult:
        artifacts = self.compile(source)
        return self.execute(artifacts.cfg_module, check_heap=check_heap)

    def execute(self, cfg_module: ModuleOp, *, check_heap: bool = True) -> RunResult:
        """Execute a compiled CFG module with the configured engine.

        A VM-side fault (injected ``vm.dispatch`` or a bytecode bug) falls
        back to the CFG tree-walker — the differential oracle, so figure
        output and metrics are byte-identical — counted as
        ``resilience.fallback.vm_to_tree``.  Budget trips are *not* a VM
        fault and propagate: the tree-walker would only hang longer.
        """
        options = self.options
        if options.execution_engine == "tree":
            return self._run_tree(cfg_module, check_heap)
        bytecode = (
            self.session.bytecode_for(
                cfg_module, superinstructions=options.superinstructions
            )
            if self.session is not None
            else compile_cfg_module(cfg_module, fuse=options.superinstructions)
        )
        try:
            return VirtualMachine(
                bytecode, dispatch=options.dispatch,
                budget=options.execution_budget(),
            ).run_main(check_heap=check_heap)
        except (InjectedFault, BytecodeError):
            if not options.enable_fallbacks:
                raise
            registry = get_metrics()
            if registry.enabled:
                registry.bump("resilience.fallback.vm_to_tree")
            return self._run_tree(cfg_module, check_heap)

    def _run_tree(self, cfg_module: ModuleOp, check_heap: bool) -> RunResult:
        """Run ``cfg_module`` on the CFG tree-walker."""
        from ..interp.cfg_interp import CfgInterpreter

        return CfgInterpreter(
            cfg_module, budget=self.options.execution_budget()
        ).run_main(check_heap=check_heap)


def run_reference(
    source: str,
    *,
    session: Optional[CompilationSession] = None,
    budget_seconds: Optional[float] = None,
    budget_steps: Optional[int] = None,
):
    """Run the source through the λpure reference interpreter (golden value)."""
    from ..interp.reference import ReferenceInterpreter, normalize

    pure = session.frontend(source) if session is not None else Frontend.to_pure(source)
    budget = make_execution_budget(budget_seconds, budget_steps)
    return normalize(ReferenceInterpreter(pure, budget=budget).run_main())


def run_baseline(
    source: str,
    *,
    check_heap: bool = True,
    rc_mode: str = "naive",
    session: Optional[CompilationSession] = None,
    execution_engine: str = "vm",
    dispatch: str = "threaded",
    superinstructions: bool = True,
    budget_seconds: Optional[float] = None,
    budget_steps: Optional[int] = None,
) -> RunResult:
    """Compile and run via the baseline ("leanc") pipeline."""
    return BaselineCompiler(
        rc_mode=rc_mode,
        session=session,
        execution_engine=execution_engine,
        dispatch=dispatch,
        superinstructions=superinstructions,
        execution_budget_seconds=budget_seconds,
        execution_budget_steps=budget_steps,
    ).run(source, check_heap=check_heap)


def run_mlir(
    source: str,
    options: Optional[PipelineOptions] = None,
    *,
    check_heap: bool = True,
    session: Optional[CompilationSession] = None,
) -> RunResult:
    """Compile and run via the lp+rgn pipeline."""
    return MlirCompiler(options, session=session).run(source, check_heap=check_heap)


def run_rc_variant(
    source: str, variant: str, *, check_heap: bool = True
) -> RunResult:
    """Compile and run via the lp+rgn pipeline at one RC optimisation level
    (``rc-naive`` / ``rc-opt`` / ``rc-opt+reuse``)."""
    if variant not in RC_VARIANTS:
        raise ValueError(f"unknown RC variant {variant!r}")
    return run_mlir(source, PipelineOptions.variant(variant), check_heap=check_heap)


def run_all_backends(source: str) -> Dict[str, RunResult]:
    """Run every pipeline variant on ``source`` (used by differential tests)."""
    results: Dict[str, RunResult] = {"baseline": run_baseline(source)}
    for variant in FIGURE10_VARIANTS:
        results[f"mlir-{variant}"] = run_mlir(source, PipelineOptions.variant(variant))
    results["mlir-default"] = run_mlir(source)
    for variant in RC_VARIANTS[1:]:
        results[f"mlir-{variant}"] = run_mlir(source, PipelineOptions.variant(variant))
        results[f"baseline-{variant}"] = run_baseline(
            source, rc_mode=variant[len("rc-"):]
        )
    return results
