"""Tests for the compilation session layer (PR 4).

Covers :class:`repro.backend.pipeline.CompilationSession` (content-keyed
frontend cache with hit/miss accounting, byte-identical IR vs uncached
compiles), the shared :func:`repro.eval.harness.measurement_options`
helper, the reusable :class:`repro.backend.lowering_context.LoweringContext`
and the process-sharded evaluation harness (``jobs > 1`` must produce
byte-identical figure output).
"""

import pytest
from hypothesis import HealthCheck, given, seed, settings

from repro.backend.lowering_context import LabelScope, LoweringContext
from repro.backend.pipeline import (
    FIGURE10_VARIANTS,
    RC_VARIANTS,
    BaselineCompiler,
    CompilationSession,
    Frontend,
    MlirCompiler,
    PipelineOptions,
    run_baseline,
    run_mlir,
    run_reference,
)
from repro.eval.benchmarks import benchmark_sources
from repro.eval.figures import figure9_report, figure10_report, rc_report
from repro.eval.harness import (
    EvaluationHarness,
    measurement_options,
    oracle_options,
)
from repro.eval.testsuite import regression_programs
from repro.fuzz import full_matrix, load_corpus, run_matrix, typed_programs
from repro.interp.bytecode import EXECUTION_ENGINES
from repro.ir.printer import print_module
from repro.lambda_pure.simplifier import simplify_program
from repro.lean.printer import print_program
from repro.rc_opt import RC_MODES, insert_optimized_rc
from repro.telemetry import Tracer, telemetry_session

SOURCES = benchmark_sources(
    {
        "binarytrees": {"depth": 3},
        "digits": {"reps": 2, "span": 5},
        "filter": {"length": 8},
    }
)

TINY = "def main : Nat := 1 + 2"


class TestCompilationSession:
    @staticmethod
    def _frontend_stats(session):
        return {
            key: session.stats[key] for key in ("hits", "misses", "entries")
        }

    def test_hit_miss_accounting(self):
        session = CompilationSession()
        assert self._frontend_stats(session) == {
            "hits": 0, "misses": 0, "entries": 0,
        }
        session.frontend(TINY)
        assert self._frontend_stats(session) == {
            "hits": 0, "misses": 1, "entries": 1,
        }
        session.frontend(TINY)
        assert self._frontend_stats(session) == {
            "hits": 1, "misses": 1, "entries": 1,
        }
        session.frontend("def main : Nat := 3")
        assert self._frontend_stats(session) == {
            "hits": 1, "misses": 2, "entries": 2,
        }

    def test_frontend_shares_the_cached_program(self):
        session = CompilationSession()
        assert session.frontend(TINY) is session.frontend(TINY)

    @pytest.mark.parametrize("variant", ("rgn",) + RC_VARIANTS)
    def test_cached_compile_ir_is_byte_identical(self, variant):
        session = CompilationSession()
        source = SOURCES["digits"]
        options = measurement_options(variant)
        uncached = MlirCompiler(options).compile(source)
        warm_miss = MlirCompiler(options, session=session).compile(source)
        warm_hit = MlirCompiler(options, session=session).compile(source)
        assert session.hits == 1 and session.misses == 1
        assert session.rc_hits == 1 and session.rc_misses == 1
        assert (
            str(uncached.rc_program)
            == str(warm_miss.rc_program)
            == str(warm_hit.rc_program)
        )
        assert (
            print_module(uncached.cfg_module)
            == print_module(warm_miss.cfg_module)
            == print_module(warm_hit.cfg_module)
        )

    def test_session_shared_across_pipeline_entry_points(self):
        session = CompilationSession()
        source = SOURCES["binarytrees"]
        expected = run_reference(source, session=session)
        baseline = run_baseline(source, session=session)
        mlir = run_mlir(source, session=session)
        assert baseline.value == expected and mlir.value == expected
        # One frontend miss, two hits: all three runs shared the parse.
        assert self._frontend_stats(session) == {
            "hits": 2, "misses": 1, "entries": 1,
        }
        # Both pipeline runs compiled their program to bytecode once.
        assert session.stats["bytecode_misses"] == 2

    def test_session_owns_one_lowering_context(self):
        session = CompilationSession()
        context = session.lowering_context
        for name in ("binarytrees", "filter"):
            MlirCompiler(measurement_options("rgn"), session=session).compile(
                SOURCES[name]
            )
        assert session.lowering_context is context
        assert context.modules_lowered == 2


class TestRcLoweringCache:
    def test_pipelines_share_one_rc_lowering_per_rc_mode(self):
        session = CompilationSession()
        source = SOURCES["filter"]
        with telemetry_session(tracer=Tracer()) as telemetry:
            baseline = BaselineCompiler(session=session).compile(source)
            mlir = MlirCompiler(
                PipelineOptions.variant("rc-naive"), session=session
            ).compile(source)
        assert mlir.rc_program is baseline.rc_program
        assert mlir.rc_report is baseline.rc_report
        # The hit ran neither the simplifier nor RC insertion.
        baseline_span, mlir_span = telemetry.tracer.find("compile")
        assert [span.name for span in baseline_span.children] == [
            "phase:frontend", "phase:simplify", "phase:rc-insert", "phase:c-emit",
        ]
        assert [span.name for span in mlir_span.children] == [
            "phase:frontend", "phase:lp-codegen", "phase:lp-to-rgn",
            "phase:rgn-opt", "phase:rgn-to-cf",
        ]
        assert (session.stats["rc_hits"], session.stats["rc_misses"]) == (1, 1)

    def test_key_separates_simplifier_flags_and_rc_modes(self):
        session = CompilationSession()
        source = SOURCES["digits"]
        lowered = [
            MlirCompiler(PipelineOptions.variant(variant), session=session)
            .compile(source)
            .rc_program
            for variant in ("simplifier", "rgn", "rc-opt", "rc-opt+reuse")
        ]
        assert len({id(program) for program in lowered}) == 4
        assert (session.stats["rc_hits"], session.stats["rc_misses"]) == (0, 4)
        BaselineCompiler(
            PipelineOptions(run_lambda_simplifier=False), session=session
        ).compile(source)
        assert (session.stats["rc_hits"], session.stats["rc_misses"]) == (1, 4)

    def test_hits_and_misses_publish_as_metrics(self):
        session = CompilationSession()
        with telemetry_session() as t:
            for _ in range(3):
                run_baseline(TINY, session=session)
            snapshot = t.metrics.snapshot()
        assert snapshot["session.rc.misses"] == 1
        assert snapshot["session.rc.hits"] == 2

    def test_full_matrix_lowers_each_rc_mode_once(self):
        session = CompilationSession()
        _, source = load_corpus()[0]
        report = run_matrix(source, session=session, configs=full_matrix())
        assert report.configurations == 18
        # 3 baseline compiles (one per rc mode, run on vm and tree) + 3
        # lp+rgn prefixes (one per rc mode, shared by its rewrite engines),
        # 3 distinct λrc.
        assert (session.stats["rc_misses"], session.stats["rc_hits"]) == (3, 3)

    def test_rc_modes_share_one_simplifier_run(self):
        session = CompilationSession()
        _, source = load_corpus()[0]
        with telemetry_session(tracer=Tracer()) as telemetry:
            run_matrix(source, session=session, configs=full_matrix())
            assert len(telemetry.tracer.find("phase:simplify")) == 1
            for mode in RC_MODES:
                BaselineCompiler(
                    PipelineOptions(rc_mode=mode, enable_simp_case=False),
                    session=session,
                ).compile(source)
        # One run per simp_case setting; RC insertion ran per rc mode.
        assert len(telemetry.tracer.find("phase:simplify")) == 2
        assert len(telemetry.tracer.find("phase:rc-insert")) == 6


def _observable(program):
    """What an in-place write to a λpure/λrc program would change."""
    return (
        str(program),
        program.constructors,
        {
            name: (fn.params, fn.borrowed_params)
            for name, fn in program.functions.items()
        },
    )


def _lowered_fresh(source, key):
    """The λrc of ``source`` at ``key``, lowered without any session."""
    run_simplifier, enable_simp_case, rc_mode = key
    pure = Frontend.to_pure(source)
    if run_simplifier:
        pure = simplify_program(pure, enable_simp_case=enable_simp_case)
    return insert_optimized_rc(pure, rc_mode)[0]


def _exercise_and_check(source, session):
    """Every figure variant, the baseline with the simplifier on and off,
    and the differential matrix over ``source`` in one session; then every
    program the session caches for it must equal a fresh lowering."""
    for variant in FIGURE10_VARIANTS + RC_VARIANTS:
        run_mlir(source, PipelineOptions.variant(variant), session=session)
    run_mlir(source, session=session)
    for enable_simplifier in (True, False):
        BaselineCompiler(
            PipelineOptions(run_lambda_simplifier=enable_simplifier),
            session=session,
        ).run(source)
    run_matrix(source, session=session)
    entry = session._pure_cache[source]
    assert _observable(entry.pure) == _observable(Frontend.to_pure(source))
    assert len(entry.rc) == 4
    for key, (rc_program, _) in entry.rc.items():
        assert _observable(rc_program) == _observable(
            _lowered_fresh(source, key)
        ), key


class TestPersistentPrograms:
    """λpure and λrc programs are shared by reference, so no pipeline may
    write into one: the cached programs must survive every consumer."""

    @pytest.fixture(scope="class")
    def session(self):
        return CompilationSession()

    @pytest.mark.parametrize(
        "program", regression_programs(), ids=lambda p: p.name
    )
    def test_testsuite_program(self, program, session):
        _exercise_and_check(program.source, session)

    @pytest.mark.parametrize(
        "name,source", load_corpus(), ids=[name for name, _ in load_corpus()]
    )
    def test_corpus_program(self, name, source, session):
        _exercise_and_check(source, session)

    def test_generated_programs(self, session):
        @seed(13)
        @settings(
            max_examples=4,
            database=None,
            deadline=None,
            suppress_health_check=list(HealthCheck),
        )
        @given(program=typed_programs())
        def check(program):
            _exercise_and_check(print_program(program), session)

        check()


class TestSharedArtifacts:
    """``run_matrix`` executes one compiled CFG module or λrc program on
    every engine, so executing must leave the artifact as it found it."""

    @pytest.mark.parametrize("variant", RC_VARIANTS)
    @pytest.mark.parametrize(
        "name,source", load_corpus(), ids=[name for name, _ in load_corpus()]
    )
    def test_execution_leaves_the_cfg_module_unchanged(
        self, name, source, variant
    ):
        session = CompilationSession()
        module = MlirCompiler(
            measurement_options(variant), session=session
        ).compile(source).cfg_module
        printed = print_module(module)
        for engine in EXECUTION_ENGINES:
            options = measurement_options(variant, execution_engine=engine)
            MlirCompiler(options, session=session).execute(module)
            assert print_module(module) == printed, engine

    @pytest.mark.parametrize("rc_mode", ["naive", "opt", "opt+reuse"])
    @pytest.mark.parametrize(
        "name,source", load_corpus(), ids=[name for name, _ in load_corpus()]
    )
    def test_execution_leaves_the_rc_program_unchanged(
        self, name, source, rc_mode
    ):
        session = CompilationSession()
        program = BaselineCompiler(
            PipelineOptions(rc_mode=rc_mode), session=session
        ).compile(source).rc_program
        fresh = _observable(_lowered_fresh(source, (True, True, rc_mode)))
        for engine in EXECUTION_ENGINES:
            BaselineCompiler(
                PipelineOptions(rc_mode=rc_mode, execution_engine=engine),
                session=session,
            ).execute(program)
            assert _observable(program) == fresh, engine


def _assert_shared_path_matches_independent_compiles(source, engines):
    """Every module ``compile_engines`` yields prints as an independent
    ``compile`` under that engine does, with equal pass statistics."""
    for rc_variant in RC_VARIANTS:
        shared = MlirCompiler(oracle_options(rc_variant)).compile_engines(
            source, engines
        )
        for engine, artifacts in zip(engines, shared, strict=True):
            alone = MlirCompiler(
                oracle_options(rc_variant, rewrite_engine=engine)
            ).compile(source)
            label = f"{rc_variant}/{engine}"
            assert print_module(artifacts.cfg_module) == print_module(
                alone.cfg_module
            ), label
            assert artifacts.pass_statistics == alone.pass_statistics, label
            assert artifacts.module_op_counts == alone.module_op_counts, label


class TestSharedPrefix:
    """``MlirCompiler.compile_engines`` builds the engine-independent IR
    once and runs each rewrite engine's suffix on a clone of it (the last
    engine on the module itself); ``run_matrix`` relies on that being the
    same as one compile per engine."""

    @pytest.mark.parametrize(
        "engines", [("worklist", "rescan"), ("rescan", "worklist")]
    )
    @pytest.mark.parametrize(
        "name,source", load_corpus(), ids=[name for name, _ in load_corpus()]
    )
    def test_corpus(self, name, source, engines):
        _assert_shared_path_matches_independent_compiles(source, engines)

    def test_generated_programs(self):
        @seed(4242)
        @settings(
            max_examples=20,
            database=None,
            deadline=None,
            suppress_health_check=list(HealthCheck),
        )
        @given(program=typed_programs())
        def check(program):
            _assert_shared_path_matches_independent_compiles(
                print_program(program), ("worklist", "rescan")
            )

        check()

    def test_branches_keep_their_own_records(self):
        _, source = load_corpus()[0]
        options = oracle_options("rc-opt")
        options.capture_ir = ("rgn", "rgn-opt")
        first, second = MlirCompiler(options).compile_engines(
            source, ("worklist", "rescan")
        )
        assert first.cfg_module is not second.cfg_module
        assert first.rc_program is second.rc_program
        assert first.captured_ir["rgn"] == second.captured_ir["rgn"]
        assert first.pass_statistics is not second.pass_statistics
        assert first.captured_ir is not second.captured_ir


class TestMeasurementOptions:
    def test_default_variant(self):
        options = measurement_options("default")
        assert options.verify_each is False
        assert options.rewrite_engine == "worklist"
        assert options.run_rgn_optimizations is True

    def test_named_variant_and_engine(self):
        options = measurement_options("rgn", rewrite_engine="rescan")
        assert options.run_lambda_simplifier is False
        assert options.run_rgn_optimizations is True
        assert options.rewrite_engine == "rescan"
        assert options.verify_each is False

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError):
            measurement_options("no-such-variant")

    def test_oracle_options_add_only_the_verifier(self):
        options = oracle_options(
            "rc-opt", rewrite_engine="rescan", execution_engine="tree"
        )
        assert options.verify_each is True
        options.verify_each = False
        assert options == measurement_options(
            "rc-opt", rewrite_engine="rescan", execution_engine="tree"
        )


class TestLoweringContext:
    def test_function_types_are_interned(self):
        context = LoweringContext()
        assert context.boxed_fn_type(2) is context.boxed_fn_type(2)
        assert context.boxed_fn_type(2) is not context.boxed_fn_type(3)
        assert context.box_arg_types(4) is context.box_arg_types(4)
        assert len(context.box_arg_types(4)) == 4

    def test_symbol_table_resets_per_module(self):
        session = CompilationSession()
        context = session.lowering_context
        MlirCompiler(measurement_options("rgn"), session=session).compile(
            SOURCES["filter"]
        )
        assert "main" in context.symbols
        first_symbols = dict(context.symbols)
        MlirCompiler(measurement_options("rgn"), session=session).compile(TINY)
        assert "main" in context.symbols
        assert context.symbols["main"] is not first_symbols["main"]

    def test_label_scope_chains_without_leaking(self):
        outer = LabelScope()
        sentinel_a, sentinel_b = object(), object()
        outer.define("j1", sentinel_a)
        child = outer.child()
        child.define("j2", sentinel_b)
        sibling = outer.child()
        assert child.lookup("j1") is sentinel_a
        assert child.lookup("j2") is sentinel_b
        assert sibling.lookup("j2") is None  # no leak across siblings
        assert outer.lookup("j2") is None  # no leak upward
        # Shadowing: a child binding wins over the parent's.
        shadow = outer.child()
        shadow.define("j1", sentinel_b)
        assert shadow.lookup("j1") is sentinel_b
        assert outer.lookup("j1") is sentinel_a


class TestShardedHarness:
    def test_jobs2_figures_byte_identical_to_jobs1(self):
        sizes = {
            "binarytrees": {"depth": 3},
            "digits": {"reps": 2, "span": 5},
            "filter": {"length": 8},
        }
        sequential = EvaluationHarness(sizes, jobs=1)
        sharded = EvaluationHarness(sizes, jobs=2)
        assert figure9_report(sequential) == figure9_report(sharded)
        assert figure10_report(sequential) == figure10_report(sharded)
        assert rc_report(sequential) == rc_report(sharded)

    def test_sequential_runs_share_one_session(self):
        sizes = {"binarytrees": {"depth": 3}}
        harness = EvaluationHarness(sizes, jobs=1)
        harness.figure9()
        # baseline + default of the same source: one miss, one hit.
        assert harness.session.stats["misses"] == 1
        assert harness.session.stats["hits"] >= 1
