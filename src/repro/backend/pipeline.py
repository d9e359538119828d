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

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..dialects.builtin import ModuleOp
from ..interp.bytecode import (
    EXECUTION_ENGINES,
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
from ..rewrite.pass_manager import PassManager
from ..rewrite.registry import build_pipeline, pipeline_fingerprint
from ..telemetry import (
    PassInstrumentation,
    PrintIRInstrumentation,
    get_metrics,
    get_tracer,
)
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
    #: Run the rgn optimisation pipeline (:func:`rgn_pipeline_spec`)
    #: between lp→rgn and rgn→cf.
    run_rgn_optimizations: bool = True
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
    #: Verify every IR state a pass pipeline produces once: after its
    #: first pass, then after each pass that changed the IR (see
    #: :class:`~repro.rewrite.pass_manager.PassManager`).
    verify_each: bool = True
    #: Pass names whose output IR is printed after they run
    #: (``--print-ir-after=<pass>``, MLIR's ``--mlir-print-ir-after``).
    print_ir_after: Tuple[str, ...] = ()
    #: Print the module after every pass (``--print-ir-after-all``).
    print_ir_after_all: bool = False
    #: Serve rgn-opt results from the session's fingerprint-keyed
    #: per-function cache (no effect without a session; see
    #: :mod:`repro.backend.incremental`).  Off by default: only a session
    #: that recompiles the same functions can hit the cache, and every miss
    #: pays a fingerprint and a stored clone per function.
    incremental_rgn_opt: bool = False
    #: Pipeline points whose textual IR to capture into
    #: ``CompilationArtifacts.captured_ir``: any of "lp" (after lp
    #: codegen/fusion), "rgn" (entering rgn-opt), "rgn-opt" (leaving it).
    #: The lowerings mutate modules in place, so these snapshots cannot be
    #: reconstructed after the fact.
    capture_ir: Tuple[str, ...] = ()
    #: Directory to write crash reproducer bundles into when a pass fails
    #: (None disables bundle writing; see :mod:`repro.resilience.bundle`).
    crash_bundle_dir: Optional[str] = None
    #: Execution budget applied when running compiled programs: wall-clock
    #: seconds and/or control-transfer steps (None = unbounded).  A tripped
    #: budget raises :class:`~repro.resilience.budgets.
    #: ExecutionBudgetExceeded` instead of hanging.
    execution_budget_seconds: Optional[float] = None
    execution_budget_steps: Optional[int] = None

    _fields = (
        "run_lambda_simplifier", "enable_simp_case", "run_rgn_optimizations",
        "rc_mode", "rewrite_engine", "execution_engine", "verify_each",
        "print_ir_after", "print_ir_after_all", "incremental_rgn_opt",
        "capture_ir", "crash_bundle_dir", "execution_budget_seconds",
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

    # Only perfbench/workloads.py still sets this attribute.
    @property
    def enable_fallbacks(self) -> bool:
        return False

    @enable_fallbacks.setter
    def enable_fallbacks(self, value: bool) -> None:
        _reject_fallbacks(value)

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


def _reject_fallbacks(value: bool) -> None:
    if value:
        raise ValueError(
            "there are no fallback ladders: faults fail loudly "
            "(see docs/RESILIENCE.md)"
        )


def _check_execution_engine(engine: str) -> None:
    if engine not in EXECUTION_ENGINES:
        raise ValueError(
            f"unknown execution engine {engine!r} (expected {EXECUTION_ENGINES})"
        )


class CompilationArtifacts(Record):
    """Everything produced while compiling one program."""

    _fields = (
        "surface_source", "pure_program", "rc_program", "cfg_module",
        "c_source", "pass_statistics", "rc_report", "module_op_counts",
        "captured_ir",
    )

    def __init__(
        self,
        surface_source: str,
        pure_program: PureProgram,
        rc_program: PureProgram,
        cfg_module: Optional[ModuleOp] = None,
        c_source: Optional[str] = None,
        pass_statistics: Optional[Dict[str, Dict[str, int]]] = None,
        rc_report: Optional[RcOptReport] = None,
        module_op_counts: Optional[Dict[str, int]] = None,
        captured_ir: Optional[Dict[str, str]] = None,
    ):
        self.surface_source = surface_source
        self.pure_program = pure_program
        self.rc_program = rc_program
        self.cfg_module = cfg_module
        self.c_source = c_source
        self.pass_statistics = (
            {} if pass_statistics is None else pass_statistics
        )
        self.rc_report = rc_report
        #: Module op counts sampled at pipeline points ("rgn" entering the
        #: rgn optimisations).  The lowerings mutate the module in place, so
        #: these cannot be recomputed afterwards.
        self.module_op_counts = (
            {} if module_op_counts is None else module_op_counts
        )
        #: Textual IR snapshots requested via ``PipelineOptions.capture_ir``.
        self.captured_ir = {} if captured_ir is None else captured_ir

    def branch(self) -> "CompilationArtifacts":
        """A copy whose pass statistics, op counts and IR captures grow on
        their own; the programs are persistent and stay shared."""
        return CompilationArtifacts(
            surface_source=self.surface_source,
            pure_program=self.pure_program,
            rc_program=self.rc_program,
            cfg_module=self.cfg_module,
            c_source=self.c_source,
            pass_statistics=dict(self.pass_statistics),
            rc_report=self.rc_report,
            module_op_counts=dict(self.module_op_counts),
            captured_ir=dict(self.captured_ir),
        )


class Frontend:
    """Shared frontend: parse, type check, lower to λpure."""

    @staticmethod
    def to_pure(source: str) -> PureProgram:
        surface = parse_program(source)
        env = check_program(surface)
        return lower_program(surface, env)


class _FrontendEntry:
    """One source's row in the session cache: its λpure program, the
    simplified program per ``enable_simp_case`` setting, and the λrc
    lowerings, keyed by (``run_lambda_simplifier``, ``enable_simp_case``,
    ``rc_mode``)."""

    __slots__ = ("pure", "simplified", "rc")

    def __init__(self, pure: PureProgram):
        self.pure = pure
        self.simplified: Dict[bool, PureProgram] = {}
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
    baseline and lp+rgn pipelines at one rc mode share one RC insertion.
    The simplified λpure program is memoised one level up, per
    ``enable_simp_case`` setting, so the rc modes share one simplifier
    run.  These entries live and die with their source's frontend entry;
    λrc hit/miss counts publish as ``session.rc.hits`` / ``.misses``.

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
    clone.  It is opt-in (``PipelineOptions.incremental_rgn_opt``).

    Sessions are cheap, single-process objects; the process-sharded harness
    gives each worker its own.
    """

    def __init__(self):
        self._pure_cache: Dict[str, _FrontendEntry] = {}
        self._bytecode_cache: Dict[int, tuple] = {}
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

    def simplified(
        self, source: str, enable_simp_case: bool,
        simplify: Callable[[], PureProgram],
    ) -> PureProgram:
        """The simplified λpure program of ``source`` (after
        :meth:`frontend`) for ``enable_simp_case``, made by ``simplify()``
        the first time it is asked for."""
        memo = self._pure_cache[source].simplified
        program = memo.get(enable_simp_case)
        if program is None:
            program = memo[enable_simp_case] = simplify()
        return program

    def rc_store(
        self, source: str, key: tuple, lowered: Tuple[PureProgram, RcOptReport]
    ) -> None:
        """Remember the λrc lowering of ``source`` for ``key`` in its
        frontend entry."""
        self._pure_cache[source].rc[key] = lowered

    def bytecode_for(self, module: ModuleOp) -> BytecodeProgram:
        """Fused bytecode for a CFG-form ``module``, compiled once per
        module."""
        return self._cached_bytecode(module, compile_cfg_module)

    def rc_bytecode_for(self, program: PureProgram) -> BytecodeProgram:
        """Fused bytecode for a λrc ``program``, compiled once per
        program."""
        return self._cached_bytecode(program, compile_rc_program)

    #: Bound on cached bytecode rows.  Each row pins its module alive (the
    #: strong reference is what keeps ``id`` keys valid), and compile-only
    #: workloads never hit the cache — without a bound a long-lived session
    #: would retain every module it ever executed.
    BYTECODE_CACHE_LIMIT = 128

    def _cached_bytecode(self, source: object, compiler) -> BytecodeProgram:
        # Keyed on module identity; the threaded closures live on each
        # VirtualMachine.
        key = id(source)
        entry = self._bytecode_cache.get(key)
        registry = get_metrics()
        if entry is not None and entry[0] is source:
            self.bytecode_hits += 1
            if registry.enabled:
                registry.bump("session.bytecode.hits")
            return entry[1]
        self.bytecode_misses += 1
        if registry.enabled:
            registry.bump("session.bytecode.misses")
        bytecode = compiler(source)
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


def phase(name: str):
    """One compilation phase of either compiler: a ``phase:<name>`` span."""
    return get_tracer().span("phase:" + name, category="phase")


def lower_to_rc(
    source: str,
    pure: PureProgram,
    session: Optional[CompilationSession],
    *,
    run_simplifier: bool,
    enable_simp_case: bool,
    rc_mode: str,
) -> Tuple[PureProgram, RcOptReport]:
    """λpure → [simplifier] → λrc, shared by both compilers.

    With a session the result is memoised per (source, simplifier flags, rc
    mode); a hit runs neither the ``simplify`` nor the ``rc-insert`` phase.
    The simplified program is memoised per (source, ``enable_simp_case``),
    so a miss at another rc mode runs only ``rc-insert``.
    """
    key = (run_simplifier, enable_simp_case, rc_mode)
    if session is not None:
        cached = session.rc_cached(source, key)
        if cached is not None:
            return cached

    def simplify() -> PureProgram:
        with phase("simplify"):
            if not run_simplifier:
                return pure
            return simplify_program(pure, enable_simp_case=enable_simp_case)

    if session is None or not run_simplifier:
        staged = simplify()
    else:
        staged = session.simplified(source, enable_simp_case, simplify)
    with phase("rc-insert"):
        lowered = insert_optimized_rc(staged, rc_mode)
    if session is not None:
        session.rc_store(source, key, lowered)
    return lowered


def pass_instrumentations(options: PipelineOptions) -> List[PassInstrumentation]:
    """The pass-instrumentation stack implied by ``options``: IR printing
    after the requested passes, and always on a pass failure."""
    return [
        PrintIRInstrumentation(
            print_after=options.print_ir_after,
            print_after_all=options.print_ir_after_all,
        )
    ]


#: Spec of the lp-level cleanup pipeline run after codegen for the
#: optimised RC modes (the SSA twin of dup/drop fusion).
LP_FUSION_SPEC = "lp-rc-fusion"


#: The engine-independent head of the rgn optimisation pipeline: the
#: rewrite engine reaches only the ``canonicalize`` element after it.
RGN_PREFIX_SPEC = "cse,region-gvn"


def rgn_suffix_spec(rewrite_engine: str) -> str:
    """The rgn optimisation pipeline after :data:`RGN_PREFIX_SPEC`: the
    canonicalize drain under ``rewrite_engine``, then dce."""
    canonicalize = "canonicalize"
    if rewrite_engine != "worklist":
        canonicalize += "{engine=" + rewrite_engine + "}"
    return canonicalize + ",dce"


def rgn_pipeline_spec(options: PipelineOptions) -> str:
    """The textual pipeline spec of the rgn optimisation pipeline.

    It reads ``cse,region-gvn,canonicalize,dce`` — runnable verbatim
    through ``python -m repro.opt`` — with ``canonicalize{engine=rescan}``
    under the rescan engine: :data:`RGN_PREFIX_SPEC` joined to
    :func:`rgn_suffix_spec`.  An ablation is a different spec, not an
    option: leave out the ``cse`` or ``region-gvn`` element, or drop a
    pattern family from the drain with ``canonicalize{ablate=...}``.

    The drain runs once, after cse and region-gvn, because region GVN is
    what exposes the identical-operand select/switch folds.  Constants the
    drain materialises are not re-CSE'd; the final dce drops unused ones.
    """
    return RGN_PREFIX_SPEC + "," + rgn_suffix_spec(options.rewrite_engine)


def build_spec_pipeline(spec: str, options: PipelineOptions) -> PassManager:
    """Build the pipeline of ``spec`` under the knobs of ``options``."""
    crash_handler = None
    if options.crash_bundle_dir is not None:
        from ..resilience.bundle import CrashBundleWriter

        crash_handler = CrashBundleWriter(options.crash_bundle_dir)
    return build_pipeline(
        spec,
        verify_each=options.verify_each,
        instrumentations=pass_instrumentations(options),
        crash_handler=crash_handler,
    )


class _Compiler:
    """What both compilers share: one :class:`PipelineOptions`, an optional
    :class:`CompilationSession` and one execute path.

    A subclass names the artifact it executes (``executable``, a
    :class:`CompilationArtifacts` field) and the two ways to run it: the
    bytecode builder for the VM and the tree interpreter (the differential
    oracle).
    """

    executable: str

    def __init__(
        self,
        options: Optional[PipelineOptions] = None,
        *,
        session: Optional[CompilationSession] = None,
    ):
        self.options = options if options is not None else PipelineOptions()
        _check_execution_engine(self.options.execution_engine)
        self.session = session

    def _frontend(self, source: str) -> PureProgram:
        with phase("frontend"):
            if self.session is not None:
                return self.session.frontend(source)
            return Frontend.to_pure(source)

    def compile(self, source: str) -> CompilationArtifacts:
        raise NotImplementedError

    def run(self, source: str, *, check_heap: bool = True) -> RunResult:
        artifacts = self.compile(source)
        return self.execute(
            getattr(artifacts, self.executable), check_heap=check_heap
        )

    def execute(self, program, *, check_heap: bool = True) -> RunResult:
        """Execute a compiled program with the configured engine.

        Every failure propagates — an injected ``vm.dispatch`` fault, a
        ``BytecodeError``, a tripped budget: the tree-walkers are oracles
        to compare against, never a second chance for a failed VM run.
        """
        options = self.options
        budget = options.execution_budget()
        if options.execution_engine == "tree":
            return self._tree_interpreter()(program, budget=budget).run_main(
                check_heap=check_heap
            )
        bytecode = (
            self.session._cached_bytecode(program, self._bytecode_builder)
            if self.session is not None
            else self._bytecode_builder(program)
        )
        return VirtualMachine(bytecode, budget=budget).run_main(
            check_heap=check_heap
        )


class BaselineCompiler(_Compiler):
    """The baseline ("leanc") pipeline: λrc executed directly, C emitted as
    an artifact.

    Of its options it reads ``run_lambda_simplifier``,
    ``enable_simp_case``, ``rc_mode``, ``execution_engine`` and the two
    execution budgets.
    """

    executable = "rc_program"
    _bytecode_builder = staticmethod(compile_rc_program)

    def __init__(
        self,
        options: Optional[PipelineOptions] = None,
        *,
        session: Optional[CompilationSession] = None,
        # Only perfbench/workloads.py still passes this keyword.
        enable_fallbacks: bool = False,
    ):
        _reject_fallbacks(enable_fallbacks)
        super().__init__(options, session=session)

    @staticmethod
    def _tree_interpreter():
        from ..interp.rc_interp import RcInterpreter

        return RcInterpreter

    def compile(self, source: str) -> CompilationArtifacts:
        options = self.options
        with get_tracer().span(
            "compile", category="pipeline", pipeline="baseline",
            rc_mode=options.rc_mode,
        ):
            pure = self._frontend(source)
            rc, rc_report = lower_to_rc(
                source, pure, self.session,
                run_simplifier=options.run_lambda_simplifier,
                enable_simp_case=options.enable_simp_case,
                rc_mode=options.rc_mode,
            )
            with phase("c-emit"):
                from .c_backend import emit_c_source

                c_source = emit_c_source(rc)
        return CompilationArtifacts(
            surface_source=source,
            pure_program=pure,
            rc_program=rc,
            c_source=c_source,
            rc_report=rc_report,
        )


class MlirCompiler(_Compiler):
    """The new pipeline: λrc → lp → rgn → CFG."""

    executable = "cfg_module"
    _bytecode_builder = staticmethod(compile_cfg_module)

    @staticmethod
    def _tree_interpreter():
        from ..interp.cfg_interp import CfgInterpreter

        return CfgInterpreter

    def compile(self, source: str) -> CompilationArtifacts:
        """Compile ``source`` under the options' rewrite engine.  The whole
        rgn pipeline runs as one pass-manager run, which is what a crash
        bundle records."""
        return next(self.compile_engines(source, (self.options.rewrite_engine,)))

    def compile_engines(
        self, source: str, rewrite_engines: Sequence[str]
    ) -> Iterator[CompilationArtifacts]:
        """Compile ``source`` once per rewrite engine, yielding one
        :class:`CompilationArtifacts` per engine, in order, as each is asked
        for.

        The rewrite engine reaches only the rgn pipeline's suffix
        (:func:`rgn_suffix_spec`).  Everything before it — the frontend,
        λrc, lp codegen and fusion, lp→rgn and :data:`RGN_PREFIX_SPEC` —
        runs once, inside the first engine's ``compile`` span.  Each engine
        then runs its suffix and rgn→cf on a clone of that module; the last
        engine takes the module itself.  With one engine the prefix and
        suffix run as one pipeline.
        """
        options = self.options
        engines = tuple(rewrite_engines)
        head = RGN_PREFIX_SPEC
        suffixes = [rgn_suffix_spec(engine) for engine in engines]
        if len(engines) == 1:
            head, suffixes = head + "," + suffixes[0], [None]
        shared = None
        for index, (engine, suffix) in enumerate(zip(engines, suffixes)):
            with get_tracer().span(
                "compile", category="pipeline", pipeline="lp+rgn",
                rc_mode=options.rc_mode, rewrite_engine=engine,
            ):
                if shared is None:
                    shared = self._lower_to_rgn(source)
                    self._optimize(*shared, head)
                artifacts, module = shared
                if index < len(engines) - 1:
                    artifacts = artifacts.branch()
                    module = module.clone()
                if suffix is not None:
                    self._optimize(artifacts, module, suffix, verified=True)
                if options.run_rgn_optimizations and "rgn-opt" in options.capture_ir:
                    artifacts.captured_ir["rgn-opt"] = print_module(module)
                with phase("rgn-to-cf"):
                    artifacts.cfg_module = lower_rgn_to_cf(module)
            yield artifacts

    def _lower_to_rgn(self, source: str) -> Tuple[CompilationArtifacts, ModuleOp]:
        """Frontend → λrc → lp (+ lp fusion) → rgn: the artifacts so far and
        the rgn module."""
        options = self.options
        session = self.session
        lowering_context = (
            session.lowering_context if session is not None else LoweringContext()
        )
        pure = self._frontend(source)
        rc, rc_report = lower_to_rc(
            source, pure, session,
            run_simplifier=options.run_lambda_simplifier,
            enable_simp_case=options.enable_simp_case,
            rc_mode=options.rc_mode,
        )
        with phase("lp-codegen"):
            lp_module = generate_lp_module(rc, lowering_context)
        artifacts = CompilationArtifacts(
            surface_source=source,
            pure_program=pure,
            rc_program=rc,
            rc_report=rc_report,
        )
        if options.rc_mode != "naive":
            # The SSA twin of dup/drop fusion.  It runs before lp→rgn,
            # on runs λrc fusion already normalised, and removes no op
            # on the benchmark suite or generated programs.
            with phase("lp-fusion"):
                lp_fusion = build_spec_pipeline(LP_FUSION_SPEC, options)
                lp_fusion.run(lp_module)
            artifacts.pass_statistics.update(
                (name, stats.counters)
                for name, stats in lp_fusion.statistics.items()
            )
        if "lp" in options.capture_ir:
            artifacts.captured_ir["lp"] = print_module(lp_module)
        with phase("lp-to-rgn"):
            module = lower_lp_to_rgn(lp_module, lowering_context)
        artifacts.module_op_counts["rgn"] = sum(1 for _ in module.walk()) - 1
        if "rgn" in options.capture_ir:
            artifacts.captured_ir["rgn"] = print_module(module)
        return artifacts, module

    def _optimize(
        self,
        artifacts: CompilationArtifacts,
        module: ModuleOp,
        spec: str,
        *,
        verified: bool = False,
    ) -> None:
        """Run the rgn pipeline ``spec`` over ``module`` (the ``rgn-opt``
        phase) and add its pass statistics to ``artifacts``.  ``verified``
        says ``module`` is a state the verifier already accepted."""
        options = self.options
        session = self.session
        if not options.run_rgn_optimizations:
            return
        with phase("rgn-opt"):
            pipeline = build_spec_pipeline(spec, options)
            if session is not None and options.incremental_rgn_opt:
                from .incremental import run_incremental_rgn_opt

                run_incremental_rgn_opt(
                    module, pipeline, session, pipeline_fingerprint(spec)
                )
            else:
                pipeline.run(module, verified=verified)
        artifacts.pass_statistics.update(
            (name, stats.counters) for name, stats in pipeline.statistics.items()
        )


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
    options: Optional[PipelineOptions] = None,
    *,
    check_heap: bool = True,
    session: Optional[CompilationSession] = None,
) -> RunResult:
    """Compile and run via the baseline ("leanc") pipeline."""
    return BaselineCompiler(options, session=session).run(
        source, check_heap=check_heap
    )


def run_mlir(
    source: str,
    options: Optional[PipelineOptions] = None,
    *,
    check_heap: bool = True,
    session: Optional[CompilationSession] = None,
) -> RunResult:
    """Compile and run via the lp+rgn pipeline."""
    return MlirCompiler(options, session=session).run(source, check_heap=check_heap)
