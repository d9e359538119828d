"""The fuzzing layer: generator soundness, differential matrix, corpus replay.

Four guarantees are pinned here (see ``docs/FUZZING.md``):

* **generator soundness** — every program :func:`repro.fuzz.typed_programs`
  draws type-checks, and survives print → parse → check with the identical
  typed AST (the meta-test runs hundreds of examples);
* **matrix agreement** — generated programs run through the *full*
  configuration matrix (rc mode × rewrite engine × execution engine)
  agree with the reference value, balance the heap, and keep identical
  execution metrics across the compile-strategy axes;
* **corpus replay** — every shrunk counterexample checked into
  ``tests/corpus/`` replays through the full matrix, fast, forever;
* **surface round-trip** — the pretty-printer reproduces the identical
  typed AST for the whole regression suite and every benchmark, so shrunk
  programs can live on as plain ``.lean`` files.
"""

import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, seed, settings

from repro.backend.pipeline import CompilationSession, MlirCompiler
from repro.eval.benchmarks import benchmark_sources
from repro.eval.testsuite import regression_programs
from repro.fuzz import (
    DifferentialFailure,
    corpus_name,
    full_matrix,
    load_corpus,
    run_matrix,
    save_counterexample,
    smoke_matrix,
    typed_programs,
)
from repro.fuzz.__main__ import main as fuzz_main
from repro.fuzz.differential import MatrixReport, _check_run
from repro.interp.bytecode import BytecodeError, VirtualMachine
from repro.lean import ast
from repro.lean.parser import parse_program
from repro.lean.printer import PrintError, print_expr, print_pattern, print_program
from repro.lean.typecheck import check_program

NO_HEALTH = list(HealthCheck)


# ---------------------------------------------------------------------------
# Generator soundness (the meta-test)
# ---------------------------------------------------------------------------


class TestGeneratorSoundness:
    @seed(2022)
    @settings(
        max_examples=500,
        database=None,
        deadline=None,
        suppress_health_check=NO_HEALTH,
    )
    @given(program=typed_programs())
    def test_generated_programs_typecheck_and_roundtrip(self, program):
        # Typechecks by construction...
        check_program(program)
        # ...and the printed surface syntax re-checks to the identical
        # typed AST, so counterexamples survive as plain .lean files.
        source = print_program(program)
        reparsed = parse_program(source)
        check_program(reparsed)
        assert reparsed == program, source

    def test_generator_exercises_language_features(self):
        # A statistical floor under the generator: a refactor that silently
        # collapses it to trivial programs must fail loudly, not just make
        # the fuzz matrix vacuous.
        found = set()

        @seed(7)
        @settings(
            max_examples=150,
            database=None,
            deadline=None,
            suppress_health_check=NO_HEALTH,
        )
        @given(program=typed_programs())
        def collect(program):
            found.update(_features(program))

        collect()
        required = {
            "adt",
            "match",
            "nested-patterns",
            "recursion",
            "partial-application",
            "higher-order",
            "lambda",
            "let",
            "if",
        }
        assert required <= found, f"missing: {sorted(required - found)}"


def _expressions(expr):
    stack = [expr]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, ast.App):
            stack.append(e.fn)
            stack.extend(e.args)
        elif isinstance(e, ast.BinOp):
            stack += [e.lhs, e.rhs]
        elif isinstance(e, ast.UnaryOp):
            stack.append(e.operand)
        elif isinstance(e, ast.Let):
            stack += [e.value, e.body]
        elif isinstance(e, ast.If):
            stack += [e.cond, e.then_branch, e.else_branch]
        elif isinstance(e, ast.Lambda):
            stack.append(e.body)
        elif isinstance(e, ast.Match):
            stack.extend(e.scrutinees)
            stack.extend(arm.body for arm in e.arms)


def _features(program):
    arity = {d.name: len(d.params) for d in program.defs}
    found = set()
    if program.inductives:
        found.add("adt")
    for decl in program.defs:
        if any(isinstance(t, ast.FunType) for _, t in decl.params):
            found.add("higher-order")
        for e in _expressions(decl.body):
            if isinstance(e, ast.Let):
                found.add("let")
            elif isinstance(e, ast.If):
                found.add("if")
            elif isinstance(e, ast.Lambda):
                found.add("lambda")
            elif isinstance(e, ast.Match):
                found.add("match")
                for arm in e.arms:
                    for pattern in arm.patterns:
                        if isinstance(pattern, ast.PCtor) and any(
                            isinstance(sub, ast.PCtor) for sub in pattern.subpatterns
                        ):
                            found.add("nested-patterns")
            elif isinstance(e, ast.App) and isinstance(e.fn, ast.Var):
                if e.fn.name == decl.name:
                    found.add("recursion")
                n = arity.get(e.fn.name)
                if n is not None and 0 < len(e.args) < n:
                    found.add("partial-application")
    return found


# ---------------------------------------------------------------------------
# Surface round-trip (testsuite + benchmarks)
# ---------------------------------------------------------------------------


BENCHMARKS = benchmark_sources()


def _assert_roundtrip(source: str, label: str) -> None:
    first = parse_program(source)
    check_program(first)
    printed = print_program(first)
    second = parse_program(printed)
    check_program(second)
    assert second == first, f"{label}: round-trip changed the typed AST\n{printed}"


class TestSurfaceRoundtrip:
    @pytest.mark.parametrize(
        "program", regression_programs(), ids=lambda p: p.name
    )
    def test_testsuite_program_roundtrips(self, program):
        _assert_roundtrip(program.source, program.name)

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_benchmark_roundtrips(self, name):
        _assert_roundtrip(BENCHMARKS[name], name)

    def test_nonnegative_int_literal_has_no_surface_spelling(self):
        # `3 : Int` only exists via NatLit coercion under an expected type;
        # printing it would change the reparsed AST, so the printer refuses.
        with pytest.raises(PrintError):
            print_expr(ast.IntLit(3))

    def test_negative_int_literal_prints(self):
        expr = parse_program("def main : Int := -4\n").defs[0].body
        assert print_expr(expr) == "-4"

    def test_negative_pattern_literal_has_no_surface_spelling(self):
        with pytest.raises(PrintError):
            print_pattern(ast.PLit(-1))


# ---------------------------------------------------------------------------
# LeanType hashing (structural, matching __eq__)
# ---------------------------------------------------------------------------


class TestLeanTypeHash:
    def test_equal_types_hash_equal(self):
        pairs = [
            (ast.NatType(), ast.NatType()),
            (ast.DataType("T1"), ast.DataType("T1")),
            (ast.ArrayType(ast.BoolType()), ast.ArrayType(ast.BoolType())),
            (
                ast.FunType(ast.NatType(), ast.FunType(ast.IntType(), ast.BoolType())),
                ast.FunType(ast.NatType(), ast.FunType(ast.IntType(), ast.BoolType())),
            ),
        ]
        for a, b in pairs:
            assert a == b
            assert hash(a) == hash(b), f"{a} == {b} but hashes differ"

    def test_types_work_as_dict_keys(self):
        table = {ast.FunType(ast.NatType(), ast.NatType()): "f"}
        assert table[ast.FunType(ast.NatType(), ast.NatType())] == "f"
        assert len({ast.NatType(), ast.NatType(), ast.IntType()}) == 2

    def test_unequal_types_are_distinct(self):
        assert ast.NatType() != ast.IntType()
        assert ast.DataType("A") != ast.DataType("B")

    def test_hash_handles_list_valued_fields(self):
        # A LeanType subclass names its fields and stores them frozen, so
        # list-valued input is kept as a tuple and hashes structurally.
        class Sig(ast.LeanType):
            _fields = ("params",)

            def __init__(self, params):
                object.__setattr__(self, "params", tuple(params))

        a, b = Sig([ast.NatType()]), Sig([ast.NatType()])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Sig([ast.IntType()])


# ---------------------------------------------------------------------------
# Differential matrix
# ---------------------------------------------------------------------------


class _StubMetrics:
    counts = {}

    def total_cost(self):
        return 0


class _StubResult:
    def __init__(self, value, allocations, frees):
        self.value = value
        self.metrics = _StubMetrics()
        self.heap_stats = {"allocations": allocations, "frees": frees}
        self.output = ()


class TestDifferentialMatrix:
    def test_full_matrix_shape(self):
        configs = full_matrix()
        assert len(configs) == 12
        assert len({c.label for c in configs}) == 12

    def test_smoke_matrix_covers_every_axis(self):
        configs = smoke_matrix()
        assert set(configs) <= set(full_matrix())
        assert {c.rc_variant for c in configs} == {
            "rc-naive", "rc-opt", "rc-opt+reuse"
        }
        assert {c.rewrite_engine for c in configs} == {"worklist", "rescan"}
        assert {c.execution_engine for c in configs} == {"vm", "tree"}

    def test_generated_programs_agree_everywhere(self):
        session = CompilationSession()

        @seed(2022)
        @settings(
            max_examples=15,
            database=None,
            deadline=None,
            suppress_health_check=NO_HEALTH,
        )
        @given(program=typed_programs())
        def run(program):
            report = run_matrix(print_program(program), session=session)
            # 12 lp+rgn configurations + 6 baseline runs.
            assert report.configurations == 18

        run()

    def test_crash_is_wrapped_with_source(self):
        source = "def main : Nat := oops\n"
        with pytest.raises(DifferentialFailure) as excinfo:
            run_matrix(source)
        assert excinfo.value.source == source
        assert excinfo.value.reason.startswith("reference:")

    @pytest.mark.parametrize("baselines", [True, False])
    def test_broken_vm_is_a_finding(self, monkeypatch, baselines):
        # A broken VM must fail its own configuration, never re-run on the
        # tree-walker oracle.
        def broken(self, *args, **kwargs):
            raise BytecodeError("broken VM")

        monkeypatch.setattr(VirtualMachine, "run_main", broken)
        _, source = CORPUS[0]
        with pytest.raises(DifferentialFailure) as excinfo:
            run_matrix(source, configs=smoke_matrix(), baselines=baselines)
        label = excinfo.value.reason.split(":", 1)[0]
        assert "/vm" in label
        assert "BytecodeError: broken VM" in excinfo.value.reason

    def test_broken_rgn_pass_is_a_verifier_finding(self, monkeypatch):
        # A dce that also moves one op below its first same-block user
        # breaks SSA dominance; the verifier, on under fuzzing, must reject
        # the first compile and name its configuration.
        from repro.transforms.dce import DeadCodeEliminationPass

        original = DeadCodeEliminationPass.run_on_function

        def broken(self, func):
            original(self, func)
            for op in func.walk():
                users = [
                    user
                    for result in op.results
                    for user in result.users()
                    if user.parent is op.parent
                ]
                if users:
                    op.move_after(users[0])
                    return

        monkeypatch.setattr(DeadCodeEliminationPass, "run_on_function", broken)
        _, source = CORPUS[0]
        with pytest.raises(DifferentialFailure) as excinfo:
            run_matrix(source, configs=smoke_matrix(), baselines=False)
        label, reason = excinfo.value.reason.split(": ", 1)
        assert label == smoke_matrix()[0].label
        assert reason.startswith("VerificationError:")
        assert "dominate" in reason

    @staticmethod
    def _break_pass(monkeypatch, pass_class, when=lambda pass_: True):
        """Make ``pass_class`` move one op below its first same-block user
        (an SSA dominance violation) in every function it runs on while
        ``when(pass_)`` holds."""
        original = pass_class.run_on_function

        def broken(self, func):
            original(self, func)
            if not when(self):
                return
            for op in func.walk():
                users = [
                    user
                    for result in op.results
                    for user in result.users()
                    if user.parent is op.parent
                ]
                if users:
                    op.move_after(users[0])
                    return

        monkeypatch.setattr(pass_class, "run_on_function", broken)

    def test_broken_rgn_pass_is_a_verifier_finding(self, monkeypatch):
        # A dce that also moves one op below its first same-block user
        # breaks SSA dominance; the verifier, on under fuzzing, must reject
        # the first compile and name its configuration.
        from repro.transforms.dce import DeadCodeEliminationPass

        self._break_pass(monkeypatch, DeadCodeEliminationPass)
        _, source = CORPUS[0]
        with pytest.raises(DifferentialFailure) as excinfo:
            run_matrix(source, configs=smoke_matrix(), baselines=False)
        label, reason = excinfo.value.reason.split(": ", 1)
        assert label == smoke_matrix()[0].label
        assert reason.startswith("VerificationError:")
        assert "dominate" in reason

    @pytest.mark.parametrize("configs", [full_matrix(), smoke_matrix()],
                             ids=["full", "smoke"])
    def test_broken_rescan_suffix_names_a_rescan_configuration(
        self, monkeypatch, configs
    ):
        # The rescan engine runs only in its group's suffix, on the shared
        # prefix's module: its fault names the first rescan configuration.
        from repro.transforms.canonicalize import CanonicalizePass

        self._break_pass(
            monkeypatch, CanonicalizePass, lambda p: p.engine == "rescan"
        )
        _, source = CORPUS[0]
        with pytest.raises(DifferentialFailure) as excinfo:
            run_matrix(source, configs=configs, baselines=False)
        label, reason = excinfo.value.reason.split(": ", 1)
        assert label == next(
            c.label for c in configs if c.rewrite_engine == "rescan"
        )
        assert reason.startswith("VerificationError:")

    @pytest.mark.parametrize("configs", [full_matrix(), smoke_matrix()],
                             ids=["full", "smoke"])
    def test_broken_prefix_names_the_rc_modes_first_configuration(
        self, monkeypatch, configs
    ):
        from repro.transforms.region_gvn import RegionGVNPass

        self._break_pass(monkeypatch, RegionGVNPass)
        _, source = CORPUS[0]
        with pytest.raises(DifferentialFailure) as excinfo:
            run_matrix(source, configs=configs, baselines=False)
        label, reason = excinfo.value.reason.split(": ", 1)
        assert label == configs[0].label
        assert reason.startswith("VerificationError:")

    @pytest.mark.parametrize(
        "configs,suffixes,clones", [(full_matrix(), 6, 3), (smoke_matrix(), 5, 2)],
        ids=["full", "smoke"],
    )
    def test_one_prefix_per_rc_mode_one_suffix_per_group(
        self, monkeypatch, configs, suffixes, clones
    ):
        # lp codegen, lp→rgn and the cse,region-gvn prefix run once per rc
        # mode; canonicalize, dce and rgn→cf once per (rc mode, rewrite
        # engine) group; one clone per rc mode with two rewrite engines.
        # Every execution engine reuses its group's module.
        import repro.backend.pipeline as pipeline
        from repro.dialects.builtin import ModuleOp

        built, calls = [], {"lp": 0, "rgn": 0, "cf": 0, "clone": 0}

        def spy(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        def spy_build(spec, options):
            built.append((options.rc_mode, spec))
            return original_build(spec, options)

        original_build = pipeline.build_spec_pipeline
        monkeypatch.setattr(pipeline, "build_spec_pipeline", spy_build)
        for name, attribute in (("lp", "generate_lp_module"),
                                ("rgn", "lower_lp_to_rgn"),
                                ("cf", "lower_rgn_to_cf")):
            monkeypatch.setattr(
                pipeline, attribute, spy(name, getattr(pipeline, attribute))
            )
        monkeypatch.setattr(ModuleOp, "clone", spy("clone", ModuleOp.clone))
        session = CompilationSession()
        _, source = CORPUS[0]
        report = run_matrix(source, session=session, configs=configs)
        assert report.configurations == len(configs) + 6
        # Pass runs per (rc mode, pipeline element), read off the specs
        # built: one prefix per rc mode (joined to the suffix when the rc
        # mode has one rewrite engine), one suffix per group.
        ran = Counter(
            (rc, element) for rc, spec in built for element in spec.split(",")
        )
        groups = {(c.rc_variant[len("rc-"):], c.rewrite_engine) for c in configs}
        expected = Counter()
        for rc in {rc for rc, _ in groups}:
            expected.update([(rc, "cse"), (rc, "region-gvn")])
            if rc != "naive":
                expected[(rc, "lp-rc-fusion")] += 1
        for rc, engine in groups:
            canonicalize = "canonicalize"
            if engine != "worklist":
                canonicalize += "{engine=" + engine + "}"
            expected.update([(rc, canonicalize), (rc, "dce")])
        assert ran == expected
        assert len(groups) == suffixes
        assert calls == {"lp": 3, "rgn": 3, "cf": suffixes, "clone": clones}
        # The matrix never turns the incremental rgn-opt cache on.
        assert (session.incremental_hits, session.incremental_misses) == (0, 0)

    def test_value_mismatch_is_detected(self):
        report = MatrixReport(source="s")
        report.reference_value = 1
        with pytest.raises(DifferentialFailure, match="!= reference"):
            _check_run(report, "cfg", _StubResult(2, 0, 0))

    def test_heap_imbalance_is_detected(self):
        report = MatrixReport(source="s")
        report.reference_value = 1
        with pytest.raises(DifferentialFailure, match="heap imbalance"):
            _check_run(report, "cfg", _StubResult(1, 3, 2))


# ---------------------------------------------------------------------------
# Corpus: storage format + replay regression test
# ---------------------------------------------------------------------------


CORPUS = load_corpus()


class TestCorpusStorage:
    def test_save_is_idempotent_and_replayable(self, tmp_path):
        source = "def main : Nat := 1 + 2\n"
        path = save_counterexample(
            source, tmp_path, reason="first line of reason\nsecond line"
        )
        again = save_counterexample(source, tmp_path, reason="different reason")
        assert path == again
        assert path.name == corpus_name(source)
        text = path.read_text(encoding="utf-8")
        assert text.startswith(
            "-- fuzz counterexample\n-- reason: first line of reason\n"
        )
        # The provenance header is comment syntax: the file replays as-is.
        program = parse_program(text)
        check_program(program)
        assert load_corpus(tmp_path) == [(path.name, text)]

    def test_missing_directory_is_empty_corpus(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []


class TestCorpusReplay:
    @pytest.fixture(scope="class")
    def session(self):
        return CompilationSession()

    def test_corpus_is_seeded(self):
        assert len(CORPUS) >= 4, "tests/corpus/ should ship seed programs"

    @pytest.mark.parametrize(
        "name,source", CORPUS, ids=[name for name, _ in CORPUS]
    )
    def test_replays_through_full_matrix(self, name, source, session):
        run_matrix(source, session=session)

    def test_replay_is_fast(self):
        # The corpus is part of tier-1: replaying all of it (fresh session,
        # full matrix) must stay well under the issue's ~5s budget.
        start = time.monotonic()
        session = CompilationSession()
        for _, source in CORPUS:
            run_matrix(source, session=session)
        assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# Fuzz CLI
# ---------------------------------------------------------------------------


class TestFuzzCli:
    def test_smoke_run_is_deterministic_and_green(self, capsys):
        code = fuzz_main(
            [
                "--seed", "3",
                "--max-examples", "6",
                "--batch-size", "3",
                "--matrix", "smoke",
                "--budget-seconds", "60",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz: 6 programs x 12 configurations" in out
        assert "0 counterexample(s)" in out

    def test_failure_is_saved_to_corpus_dir(self, tmp_path, monkeypatch, capsys):
        import repro.fuzz.__main__ as fuzz_cli

        def explode(source, **kwargs):
            raise DifferentialFailure(source, "synthetic failure")

        monkeypatch.setattr(fuzz_cli, "run_matrix", explode)
        code = fuzz_main(
            [
                "--max-examples", "2",
                "--batch-size", "2",
                "--save",
                "--corpus-dir", str(tmp_path),
                "--stop-on-failure",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        saved = sorted(tmp_path.glob("fuzz_*.lean"))
        assert len(saved) == 1
        assert "-- reason: synthetic failure" in saved[0].read_text(encoding="utf-8")
        assert "1 counterexample(s)" in out
