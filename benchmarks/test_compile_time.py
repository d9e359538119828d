"""Compile-time guard: the worklist rewrite engine vs the rescan baseline.

Asserts the acceptance criteria of the worklist-driver work:

* differential — on the full benchmark suite both engines reach the exact
  same final IR,
* efficiency — on the largest benchmark of the compile suite (the
  ``rewrite-stress`` dead-join-point tower) total pattern match attempts
  drop at least 3x versus the rescan driver,
* reporting — ``figures --figure compile`` prints the same bytes whichever
  way the suite is sharded, and every phase is a span under its compile,

plus the acceptance criteria of the session-layer work (PR 4):

* region-gvn memoisation — fingerprint hashing work on ``rbmap_checkpoint``
  drops at least 3x versus the uncached-equivalent counter,
* sharding — a ``--jobs 2`` suite run reaches byte-identical final IR (and
  the same measurement set) as a sequential run,

plus the acceptance criterion of the incremental-recompilation work:

* incrementality — a one-function-changed recompile of
  ``rbmap_checkpoint`` through a session re-runs rgn-opt on exactly the
  changed function (``session.incremental`` hit counters) and its
  ``phase:rgn-opt`` span beats a cold compile's on wall time,

plus the acceptance criterion of the unified telemetry subsystem:

* overhead — with no telemetry session active the instrumented call sites
  talk to the no-op singletons, record nothing, and keep the compile
  within noise of a telemetry-on run.
"""

import time

import pytest

from repro.backend.pipeline import MlirCompiler
from repro.eval.benchmarks import DEFAULT_SIZES, benchmark_sources
from repro.eval.compile_bench import (
    PHASES,
    STRESS_BENCHMARK,
    build_stress_module,
    differential_rows,
    measure_benchmark,
    measure_stress,
    run_suite,
)
from repro.eval.figures import main as figures_main
from repro.eval.harness import measurement_options
from repro.telemetry import Tracer, telemetry_session


@pytest.fixture(scope="module")
def small_sizes(request):
    # Reuse the reduced sizes of the runtime benchmarks (see conftest.py).
    from conftest import SMALL_SIZES

    return SMALL_SIZES


@pytest.fixture(scope="module")
def rows(small_sizes):
    return differential_rows(small_sizes)


class TestDifferential:
    def test_every_benchmark_reaches_identical_ir(self, rows):
        mismatched = [row.benchmark for row in rows if not row.ir_equal]
        assert not mismatched, (
            f"worklist and rescan engines disagree on final IR: {mismatched}"
        )

    def test_suite_is_covered(self, rows, small_sizes):
        names = {row.benchmark for row in rows}
        assert set(small_sizes) <= names
        assert STRESS_BENCHMARK in names

    def test_match_attempts_reduced_3x_on_largest_benchmark(self, rows):
        largest = max(rows, key=lambda row: row.initial_op_count)
        assert largest.worklist_attempts > 0
        assert largest.attempt_ratio >= 3.0, (
            f"{largest.benchmark}: rescan={largest.rescan_attempts} "
            f"worklist={largest.worklist_attempts} "
            f"ratio={largest.attempt_ratio:.2f} < 3.0"
        )

    def test_no_benchmark_regresses_attempts(self, rows):
        # The worklist engine must never do *more* matching work (small
        # notification-driven deltas aside) than a full rescan fixpoint.
        for row in rows:
            assert row.worklist_attempts <= row.rescan_attempts * 1.05, (
                f"{row.benchmark}: worklist={row.worklist_attempts} exceeds "
                f"rescan={row.rescan_attempts}"
            )


class TestStressWorkload:
    def test_stress_module_shape(self):
        module = build_stress_module(layers=4, filler=2)
        ops = [op.name for op in module.walk()]
        assert ops.count("rgn.val") == 4
        assert ops.count("rgn.run") == 6  # two runs per level after the first

    def test_rescan_pays_one_sweep_per_level(self):
        worklist = measure_stress("worklist", layers=8, filler=4)
        rescan = measure_stress("rescan", layers=8, filler=4)
        assert worklist.ir_text == rescan.ir_text
        assert worklist.driver_iterations == 1
        # Dead levels cascade strictly backwards: the rescan driver needs
        # roughly one full sweep per level (plus the final clean sweep).
        assert rescan.driver_iterations >= 8

    def test_worklist_requeues_are_deduplicated(self):
        # Satellite regression: one application may touch the same op many
        # times; the membership set must keep match attempts linear-ish.
        small = measure_stress("worklist", layers=4, filler=4)
        large = measure_stress("worklist", layers=8, filler=4)
        assert large.match_attempts < 4 * small.match_attempts


class TestRegionGvnMemoisation:
    """PR 4 guard: memoised region fingerprints on the flagship benchmark."""

    @pytest.fixture(scope="class")
    def rbmap_stats(self):
        source = benchmark_sources(
            {"rbmap_checkpoint": DEFAULT_SIZES["rbmap_checkpoint"]}
        )["rbmap_checkpoint"]
        artifacts = MlirCompiler(measurement_options("rgn")).compile(source)
        return artifacts.pass_statistics["region-gvn"]

    def test_fingerprint_work_drops_3x_vs_uncached(self, rbmap_stats):
        hashed = rbmap_stats["fingerprint-entries-hashed"]
        uncached = rbmap_stats["fingerprint-entries-uncached"]
        assert hashed > 0
        assert uncached >= 3 * hashed, (
            f"rbmap_checkpoint: {hashed} op entries hashed with the memo, "
            f"uncached equivalent {uncached} — ratio "
            f"{uncached / hashed:.2f} < 3.0"
        )

    def test_every_region_hashed_at_most_once(self, rbmap_stats):
        # Without mutations in this pipeline configuration, computed
        # fingerprints equal the number of distinct regions queried — every
        # repeat query must be a cache hit.
        assert rbmap_stats["fingerprint-cache-hits"] > 0
        assert (
            rbmap_stats["fingerprints-computed"]
            < rbmap_stats["fingerprints-uncached-equivalent"]
        )


class TestIncrementalRecompilation:
    """PR 7 guard: fingerprint-keyed incremental rgn-opt on the flagship
    benchmark — a one-function-changed recompile re-runs the optimisation
    pipeline on exactly that function, and the rgn-opt phase gets
    measurably cheaper than a cold compile."""

    REPEATS = 3

    @pytest.fixture(scope="class")
    def rbmap_source(self):
        return benchmark_sources(
            {"rbmap_checkpoint": DEFAULT_SIZES["rbmap_checkpoint"]}
        )["rbmap_checkpoint"]

    @pytest.fixture(scope="class")
    def recompile_pairs(self, rbmap_source):
        """(cold, warm, session) per repeat: cold = first compile, warm =
        recompile with only ``main``'s body changed."""
        from repro.backend.pipeline import CompilationSession

        changed = rbmap_source.replace("sumFinds 30 t 0", "sumFinds 30 t (0 + 0)")
        assert changed != rbmap_source
        pairs = []
        for _ in range(self.REPEATS):
            session = CompilationSession()
            options = measurement_options("rgn")
            options.incremental_rgn_opt = True  # off by default
            compiler = MlirCompiler(options, session=session)
            with telemetry_session(tracer=Tracer()) as telemetry:
                compiler.compile(rbmap_source)
                compiler.compile(changed)
            cold, warm = (
                span.duration_seconds
                for span in telemetry.tracer.find("phase:rgn-opt")
            )
            pairs.append((cold, warm, session))
        return pairs

    def test_only_the_changed_function_reoptimises(self, recompile_pairs):
        for _, _, session in recompile_pairs:
            stats = session.stats
            # 9 functions: the cold compile misses all of them, the warm
            # recompile hits the 8 unchanged ones and misses only main.
            assert stats["incremental_misses"] == 10
            assert stats["incremental_hits"] == 8

    def test_warm_rgn_opt_phase_beats_cold(self, recompile_pairs):
        colds = sorted(cold for cold, _, _ in recompile_pairs)
        warms = sorted(warm for _, warm, _ in recompile_pairs)
        median_cold = colds[len(colds) // 2]
        median_warm = warms[len(warms) // 2]
        assert median_warm < 0.9 * median_cold, (
            f"one-function-changed rgn-opt took {median_warm * 1e3:.2f} ms "
            f"vs {median_cold * 1e3:.2f} ms cold — the incremental cache "
            "is not paying for itself on rbmap_checkpoint"
        )


class TestSuiteReport:
    def test_sharded_suite_matches_sequential(self, small_sizes):
        # One worker per benchmark must change nothing observable except
        # wall time: same measurement set, byte-identical final IR.
        sequential = run_suite(small_sizes, jobs=1)
        sharded = run_suite(small_sizes, jobs=2)
        assert [(m.benchmark, m.engine) for m in sequential] == [
            (m.benchmark, m.engine) for m in sharded
        ]
        for seq, par in zip(sequential, sharded):
            assert seq.ir_text == par.ir_text, seq.benchmark
            assert seq.match_attempts == par.match_attempts, seq.benchmark

    def test_figure_output_is_deterministic(self, capsys):
        # The report carries counts and IR verdicts only, so reruns and
        # sharding print the same bytes.
        outputs = []
        for jobs in ("1", "1", "2"):
            assert figures_main(["--figure", "compile", "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert "DIFF" not in outputs[0]

    def test_phase_spans_cover_pipeline(self, small_sizes):
        name = next(iter(small_sizes))
        source = benchmark_sources(small_sizes)[name]
        with telemetry_session(tracer=Tracer()) as telemetry:
            measure_benchmark(name, source)
        (compile_span,) = telemetry.tracer.find("compile")
        phases = [
            span.name for span in compile_span.children
            if span.category == "phase"
        ]
        # The rgn variant inserts naive RC, so there is nothing to fuse.
        expected = [phase for phase in PHASES if phase != "lp-fusion"]
        assert phases == ["phase:" + phase for phase in expected]


class TestTelemetryOverhead:
    """Telemetry acceptance guard: the disabled path stays within noise."""

    @pytest.fixture(scope="class")
    def source(self):
        return benchmark_sources(
            {"rbmap_checkpoint": DEFAULT_SIZES["rbmap_checkpoint"]}
        )["rbmap_checkpoint"]

    def test_disabled_telemetry_records_nothing(self, source):
        # A run *outside* the session must leave the session's tracer and
        # registry untouched — proof the instrumented call sites resolve
        # the active session per call instead of caching a live one.
        compiler = MlirCompiler(measurement_options("rgn"))
        with telemetry_session() as session:
            pass
        compiler.compile(source)
        assert session.tracer.roots == []
        assert len(session.metrics) == 0

    def test_telemetry_off_compile_not_slower_than_on(self, source):
        # Best-of-3 compile each way.  The disabled path is a handful of
        # no-op calls per pass/phase; the generous 1.5x bound only fails
        # if disabled telemetry somehow costs *more* than live recording
        # plus noise.
        def best_of(runs, session_active):
            samples = []
            for _ in range(runs):
                compiler = MlirCompiler(measurement_options("rgn"))
                start = time.perf_counter()
                if session_active:
                    with telemetry_session():
                        compiler.compile(source)
                else:
                    compiler.compile(source)
                samples.append(time.perf_counter() - start)
            return min(samples)

        off = best_of(3, session_active=False)
        on = best_of(3, session_active=True)
        assert off <= on * 1.5 + 0.05, (
            f"telemetry-off compile ({off * 1e3:.1f} ms) slower than "
            f"telemetry-on ({on * 1e3:.1f} ms) beyond noise"
        )
