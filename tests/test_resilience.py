"""Tests for the resilience layer (``repro.resilience``).

Five layers, mirroring ``docs/RESILIENCE.md``:

* **fault-injection sweep** — every pass site, injected, produces a crash
  bundle that names the injected pass (and, for pattern-driver passes,
  the blamed pattern) and replays byte-identically,
* **one snapshot per run** — a pipeline with a crash handler prints the
  module once; a failure rebuilds the failing pass's input by replaying
  the passes before it, or writes a non-local bundle when it cannot,
* **loud faults** — a ``vm.dispatch`` or ``driver.worklist`` fault fails
  the run with its layer's exit code (and a replayable bundle where a
  pass is involved); nothing recovers from a fault,
* **budgets** — all four execution engines trip
  ``ExecutionBudgetExceeded`` on a diverging program instead of hanging,
  and rewrite fixpoints trip ``RewriteBudgetExceeded``,
* **CLI contracts** — ``python -m repro`` exit codes name the failing
  layer; ``python -m repro.opt`` writes and replays bundles,
* **drift guards** — the site catalogue in ``docs/RESILIENCE.md`` matches
  :func:`repro.resilience.faults.known_sites`.
"""

import json
import re
import sys
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.backend.pipeline import (
    BaselineCompiler,
    MlirCompiler,
    PipelineOptions,
    run_baseline,
    run_mlir,
    run_reference,
)
from repro.opt import main as opt_main
from repro.resilience import (
    CrashBundleWriter,
    ExecutionBudget,
    ExecutionBudgetExceeded,
    FaultPlan,
    InjectedFault,
    RewriteBudgetExceeded,
    fault_plan,
    known_sites,
    load_bundle,
)
from repro.resilience.faults import STATIC_SITES
from repro.interp.limits import DEFAULT_RECURSION_LIMIT, recursion_limit
from repro.rewrite.registry import build_pipeline, registered_passes
from repro.telemetry import telemetry_session

REPO_ROOT = Path(__file__).resolve().parent.parent
RESILIENCE_MD = REPO_ROOT / "docs" / "RESILIENCE.md"

#: Small program whose compile exercises cse, region-gvn, canonicalize and
#: dce, and whose run terminates.  The single-constructor match is what
#: gives canonicalize a real pattern application (the run-of-known-region
#: inlining), which the pattern-level fault test depends on.
SOURCE = """
inductive Pair where
| mk (a : Nat) (b : Nat)

def add (a b : Nat) : Nat := a + b

def swapSum (p : Pair) : Nat :=
  match p with
  | Pair.mk a b => add b a

def main : Nat := add (swapSum (Pair.mk 4 17)) (add 4 17)
"""

#: A diverging program: only budgets make executing it terminate.
DIVERGENT = """
def spin (n : Nat) : Nat := spin n

def main : Nat := spin 1
"""


@pytest.fixture(scope="module")
def rgn_ir():
    """Textual rgn IR of SOURCE, entering the rgn optimisations."""
    options = PipelineOptions(capture_ir=("rgn",))
    return MlirCompiler(options).compile(SOURCE).captured_ir["rgn"]


@pytest.fixture
def rgn_file(tmp_path, rgn_ir):
    path = tmp_path / "input.mlir"
    path.write_text(rgn_ir, encoding="utf-8")
    return str(path)


@pytest.fixture
def lean_file(tmp_path):
    path = tmp_path / "program.lean"
    path.write_text(SOURCE, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# FaultPlan mechanics
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_known_sites_cover_statics_and_every_registered_pass(self):
        sites = known_sites()
        for site in STATIC_SITES:
            assert site in sites
        for name in registered_passes():
            assert f"pass.{name}" in sites

    def test_parse_rejects_unknown_site_and_bad_count(self):
        with pytest.raises(ValueError):
            FaultPlan.parse(["no.such.site:1"])
        with pytest.raises(ValueError):
            FaultPlan.parse(["verify:zero"])
        with pytest.raises(ValueError):
            FaultPlan.parse(["verify:0"])

    def test_bare_site_means_first_hit(self):
        plan = FaultPlan.parse(["verify"])
        assert plan.triggers == {"verify": 1}

    def test_fires_exactly_once_at_the_nth_hit(self):
        plan = FaultPlan.parse(["verify:3"])
        with fault_plan(plan):
            from repro.resilience import fault_hit

            fault_hit("verify")
            fault_hit("verify")
            with pytest.raises(InjectedFault) as excinfo:
                fault_hit("verify")
            assert excinfo.value.occurrence == 3
            # Never again: the site is spent.
            fault_hit("verify")
        assert plan.hits == {"verify": 4}

    def test_remaining_specs_rebase_onto_a_baseline(self):
        plan = FaultPlan.parse(["verify:5", "pass.cse:1"])
        # Sites whose trigger is already consumed by the baseline drop out;
        # the rest count down only the hits still to come.
        assert plan.remaining_specs({"verify": 3, "pass.cse": 1}) == [
            "verify:2"
        ]
        assert plan.remaining_specs({}) == ["pass.cse:1", "verify:5"]

    def test_plan_is_scoped_by_the_context_manager(self):
        from repro.resilience import active_plan

        assert active_plan() is None
        with fault_plan(FaultPlan.parse(["verify"])):
            assert active_plan() is not None
        assert active_plan() is None


# ---------------------------------------------------------------------------
# Fault-injection sweep: every pass site produces a bundle that names the
# failing pass and replays byte-identically through repro.opt
# ---------------------------------------------------------------------------


def run_opt(capsys, *args):
    code = opt_main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bundle_path_from(stderr: str) -> str:
    match = re.search(r"crash bundle: (\S+)", stderr)
    assert match, f"no crash-bundle path in stderr:\n{stderr}"
    return match.group(1)


class TestPassSiteSweep:
    @pytest.mark.parametrize("name", sorted(registered_passes()))
    def test_injected_pass_fault_bundles_and_replays(
        self, name, tmp_path, rgn_file, capsys
    ):
        crash_dir = tmp_path / "crashes"
        code, _, err = run_opt(
            capsys,
            rgn_file,
            "--pipeline", name,
            "--inject-fault", f"pass.{name}:1",
            "--crash-dir", str(crash_dir),
        )
        assert code == 1
        path = Path(bundle_path_from(err))
        bundle = load_bundle(path)
        assert bundle.failing_pass == name
        assert bundle.error_type == "InjectedFault"
        assert bundle.faults == [f"pass.{name}:1"]
        # The bundle starts at the injected pass: a one-pass reproducer.
        assert bundle.pipeline_spec == name
        manifest = json.loads((path / "bundle.json").read_text("utf-8"))
        assert manifest["failing_pass"] == name
        assert manifest["error"]["failing_pattern"] is None

        # Replay: same error, and — because bundles are content-addressed —
        # the re-written bundle has the identical name iff the failure
        # reproduced byte-identically.
        replay_dir = tmp_path / "replay"
        code, _, err = run_opt(
            capsys,
            "--pipeline-from-bundle", str(path),
            "--crash-dir", str(replay_dir),
        )
        assert code == 1
        assert bundle.error_message in err
        replayed = Path(bundle_path_from(err))
        assert replayed.name == path.name
        assert (
            (replayed / "error.txt").read_text(encoding="utf-8")
            == (path / "error.txt").read_text(encoding="utf-8")
        )
        assert (
            (replayed / "input.mlir").read_text(encoding="utf-8")
            == (path / "input.mlir").read_text(encoding="utf-8")
        )

    def test_pattern_level_fault_blames_the_applied_pattern(self, tmp_path):
        """Hit 2 of a ``pass.<name>`` site is the first pattern application
        (hit 1 is the pass entry), so the fault and the bundle's manifest
        carry pattern-level blame."""
        options = PipelineOptions(crash_bundle_dir=str(tmp_path))
        plan = FaultPlan.parse(["pass.canonicalize:2"])
        with fault_plan(plan):
            with pytest.raises(InjectedFault) as excinfo:
                MlirCompiler(options).compile(SOURCE)
        error = excinfo.value
        assert error.failing_pattern is not None
        bundle = load_bundle(error.crash_bundle)
        assert bundle.failing_pass == "canonicalize"
        assert bundle.pipeline_spec == "canonicalize,dce"
        manifest = json.loads(
            (bundle.path / "bundle.json").read_text(encoding="utf-8")
        )
        assert manifest["error"]["failing_pattern"] == error.failing_pattern

    def test_verify_fault_produces_a_bundle(self, tmp_path, rgn_file, capsys):
        code, _, err = run_opt(
            capsys,
            rgn_file,
            "--inject-fault", "verify:1",
            "--crash-dir", str(tmp_path),
        )
        assert code == 1
        bundle = load_bundle(bundle_path_from(err))
        assert bundle.error_type == "InjectedFault"
        assert bundle.faults == ["verify:1"]

    def test_bundle_manifest_round_trips(self, tmp_path):
        writer = CrashBundleWriter(str(tmp_path))
        error = ValueError("boom")
        path = writer.on_crash(
            pre_pass_ir="ir-text",
            remaining_spec="cse,dce",
            failing_pass="cse",
            error=error,
            fault_specs=["pass.cse:1"],
            verify_each=False,
        )
        bundle = load_bundle(path)
        assert bundle.input_ir == "ir-text"
        assert bundle.pipeline_spec == "cse,dce"
        assert bundle.failing_pass == "cse"
        assert bundle.error_type == "ValueError"
        assert bundle.error_message == "boom"
        assert bundle.faults == ["pass.cse:1"]
        assert bundle.verify_each is False
        assert writer.written == [path]
        # Same content -> same directory: the writer is idempotent.
        assert writer.on_crash(
            pre_pass_ir="ir-text",
            remaining_spec="cse,dce",
            failing_pass="cse",
            error=error,
            fault_specs=["pass.cse:1"],
            verify_each=False,
        ) == path


# ---------------------------------------------------------------------------
# One snapshot per run: the failing pass's input is rebuilt on failure
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rbmap_source():
    from repro.eval.benchmarks import benchmark_sources

    return benchmark_sources()["rbmap_checkpoint"]


def rgn_variant(**overrides) -> PipelineOptions:
    options = PipelineOptions.variant("rgn")
    for name, value in overrides.items():
        setattr(options, name, value)
    return options


@pytest.fixture(scope="module")
def rbmap_rgn_ir(rbmap_source):
    """rbmap's rgn IR under the ``rgn`` variant, entering rgn-opt."""
    options = rgn_variant(capture_ir=("rgn",))
    return MlirCompiler(options).compile(rbmap_source).captured_ir["rgn"]


#: Faults that fire after the first pass of rbmap's rgn pipeline
#: (``verify:2`` rejects canonicalize's output), plus ``region-gvn``,
#: whose bundle starts at the pipeline's second pass.
MID_PIPELINE_FAULTS = (
    "pass.region-gvn:1", "pass.canonicalize:2", "pass.dce:1",
    "driver.worklist:1", "verify:2",
)


class TestOneSnapshotPerRun:
    @pytest.mark.parametrize("rc_mode, runs", [("naive", 1), ("opt", 2)])
    def test_one_print_per_pass_manager_run(
        self, rc_mode, runs, tmp_path, monkeypatch
    ):
        import repro.ir.printer as printer
        from repro.rewrite.pass_manager import PassManager

        calls = {"print": 0, "run": 0}
        real_print, real_run = printer.print_module, PassManager.run

        def spy_print(module):
            calls["print"] += 1
            return real_print(module)

        def spy_run(self, module):
            calls["run"] += 1
            return real_run(self, module)

        monkeypatch.setattr(printer, "print_module", spy_print)
        monkeypatch.setattr(PassManager, "run", spy_run)
        MlirCompiler(
            PipelineOptions(rc_mode=rc_mode, crash_bundle_dir=str(tmp_path))
        ).compile(SOURCE)
        # rgn-opt runs four passes and (above naive) lp fusion one.
        assert calls == {"print": runs, "run": runs}

        calls.update(print=0, run=0)
        MlirCompiler(PipelineOptions(rc_mode=rc_mode)).compile(SOURCE)
        assert calls == {"print": 0, "run": runs}

    def test_replay_rebuilds_the_live_ir_before_every_pass(
        self, monkeypatch
    ):
        """The replay's premise: passes rebuilt from their specs, run over
        the re-parsed pipeline input, reach the IR the live run had."""
        import repro.backend.pipeline as pipeline_module
        from repro.eval.benchmarks import benchmark_sources
        from repro.ir.printer import print_module
        from repro.telemetry import PassInstrumentation

        class Snapshots(PassInstrumentation):
            def __init__(self):
                self.pre_pass_ir = []

            def run_before_pass(self, pass_, module):
                self.pre_pass_ir.append(print_module(module))

        runs = []
        real_build = pipeline_module.build_spec_pipeline

        def build(spec, options):
            manager = real_build(spec, options)
            runs.append((manager, Snapshots()))
            manager.add_instrumentation(runs[-1][1])
            return manager

        monkeypatch.setattr(pipeline_module, "build_spec_pipeline", build)
        for options in (
            PipelineOptions(), rgn_variant(),
            PipelineOptions(rc_mode="opt+reuse", rewrite_engine="rescan"),
        ):
            for source in benchmark_sources().values():
                MlirCompiler(options).compile(source)
        checked = 0
        for manager, snapshots in runs:
            pipeline_input = snapshots.pre_pass_ir[0]
            for index, pre_pass_ir in enumerate(snapshots.pre_pass_ir):
                assert (
                    manager._replay_prefix(pipeline_input, index)
                    == pre_pass_ir
                ), (manager.describe(), index)
                checked += 1
        # 27 rgn-opt runs of four passes, 9 lp-fusion runs of one.
        assert checked == 27 * 4 + 9

    @pytest.mark.parametrize("fault", MID_PIPELINE_FAULTS)
    def test_bundle_input_is_the_prefix_run_over_the_pipeline_input(
        self, fault, rbmap_source, rbmap_rgn_ir, tmp_path, capsys
    ):
        from repro.backend.pipeline import rgn_pipeline_spec
        from repro.ir.parser import parse_module
        from repro.ir.printer import print_module

        options = rgn_variant(crash_bundle_dir=str(tmp_path / "crashes"))
        with fault_plan(FaultPlan.parse([fault])):
            with pytest.raises(InjectedFault) as excinfo:
                MlirCompiler(options).compile(rbmap_source)
        bundle = load_bundle(excinfo.value.crash_bundle)

        full = rgn_pipeline_spec(options).split(",")
        remaining = bundle.pipeline_spec.split(",")
        prefix = full[:len(full) - len(remaining)]
        assert prefix + remaining == full
        assert prefix, "the fault should fire after the first pass"
        module = parse_module(rbmap_rgn_ir)
        build_pipeline(",".join(prefix)).run(module)
        assert bundle.input_ir == print_module(module)

        code, _, err = run_opt(
            capsys,
            "--pipeline-from-bundle", str(bundle.path),
            "--crash-dir", str(tmp_path / "replay"),
        )
        assert code == 1
        replayed = Path(bundle_path_from(err))
        for name in ("input.mlir", "pipeline.txt"):
            assert (
                (replayed / name).read_text(encoding="utf-8")
                == (bundle.path / name).read_text(encoding="utf-8")
            )
        if fault != "verify:2":
            assert replayed.name == bundle.path.name
        else:
            # The fault message names the hit count since the plan was
            # armed ("hit 2"); the re-based plan of the replay fires at
            # its first verify ("hit 1"), so the error text, and with it
            # the directory name, differs.
            assert "(hit 2)" in bundle.error_message

    def test_failing_cli_run_counts_one_fault_and_one_span_per_pass(
        self, rbmap_source, tmp_path, capsys
    ):
        program = tmp_path / "rbmap.lean"
        program.write_text(rbmap_source, encoding="utf-8")
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.json"
        code = cli_main([
            str(program), "--variant", "rgn",
            "--inject-fault", "pass.dce:1",
            "--metrics-json", str(metrics_path),
            "--trace-out", str(trace_path),
            "--crash-dir", str(tmp_path / "crashes"),
        ])
        capsys.readouterr()
        assert code == 4
        metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert metrics["metrics"]["resilience.faults.injected"] == 1
        events = json.loads(trace_path.read_text(encoding="utf-8"))
        names = [event["name"] for event in events["traceEvents"]]
        assert [n for n in names if n.startswith("pass:")] == [
            "pass:cse", "pass:region-gvn", "pass:canonicalize", "pass:dce",
        ]

    def test_unregistered_pass_ahead_gives_a_non_local_bundle(
        self, rgn_ir, tmp_path
    ):
        from repro.ir.parser import parse_module
        from repro.rewrite.pass_manager import ModulePass, PassManager
        from repro.rewrite.registry import build_passes

        class HandBuilt(ModulePass):
            name = "hand-built"

            def run(self, module):
                pass

        manager = PassManager(
            [*build_passes("cse"), HandBuilt(), *build_passes("dce")],
            crash_handler=CrashBundleWriter(str(tmp_path)),
        )
        with fault_plan(FaultPlan.parse(["pass.dce:1"])):
            with pytest.raises(InjectedFault) as excinfo:
                manager.run(parse_module(rgn_ir))
        bundle = load_bundle(excinfo.value.crash_bundle)
        # MLIR's non-local reproducer: the pipeline input, the whole
        # pipeline and the fault plan re-based to the pipeline entry.
        assert bundle.input_ir == rgn_ir
        assert bundle.pipeline_spec == "cse,hand-built,dce"
        assert bundle.failing_pass == "dce"
        assert bundle.faults == ["pass.dce:1"]
        error_lines = (
            (bundle.path / "error.txt").read_text(encoding="utf-8")
            .splitlines()
        )
        assert error_lines[0] == (
            "InjectedFault: injected fault at site 'pass.dce' (hit 1)"
        )
        assert error_lines[1].startswith(
            "note: the IR before pass 2 (dce) could not be rebuilt "
            "(PipelineSpecError: unknown pass 'hand-built'"
        )


# ---------------------------------------------------------------------------
# Loud faults: nothing recovers from a fault
# ---------------------------------------------------------------------------


class TestLoudFaults:
    def test_vm_fault_raises_from_run_mlir(self):
        with fault_plan(FaultPlan.parse(["vm.dispatch:1"])):
            with pytest.raises(InjectedFault):
                run_mlir(SOURCE)

    def test_vm_fault_raises_from_run_baseline(self):
        with fault_plan(FaultPlan.parse(["vm.dispatch:1"])):
            with pytest.raises(InjectedFault):
                run_baseline(SOURCE)

    def test_worklist_fault_raises_from_run_mlir(self):
        # No rescan retry: the rewrite driver's fault reaches the caller.
        with fault_plan(FaultPlan.parse(["driver.worklist:1"])):
            with pytest.raises(InjectedFault):
                run_mlir(SOURCE)

    def test_worklist_fault_is_4_and_its_bundle_replays(
        self, lean_file, tmp_path, capsys
    ):
        crash_dir = tmp_path / "crashes"
        code = cli_main([
            lean_file,
            "--inject-fault", "driver.worklist:1",
            "--crash-dir", str(crash_dir),
        ])
        err = capsys.readouterr().err
        assert code == 4
        path = Path(bundle_path_from(err))
        assert load_bundle(path).error_type == "InjectedFault"

        code, _, err = run_opt(
            capsys,
            "--pipeline-from-bundle", str(path),
            "--crash-dir", str(tmp_path / "replay"),
        )
        assert code == 1
        replayed = Path(bundle_path_from(err))
        assert replayed.name == path.name
        assert (
            (replayed / "error.txt").read_text(encoding="utf-8")
            == (path / "error.txt").read_text(encoding="utf-8")
        )

    def test_cache_sites_are_unknown(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.parse(["cache.frontend:1"])

    def test_enable_fallbacks_stubs_reject_true(self):
        options = PipelineOptions()
        options.enable_fallbacks = False
        assert options.enable_fallbacks is False
        with pytest.raises(ValueError):
            options.enable_fallbacks = True
        BaselineCompiler(enable_fallbacks=False)
        with pytest.raises(ValueError):
            BaselineCompiler(enable_fallbacks=True)


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------


class TestExecutionBudgets:
    def test_budget_requires_a_bound(self):
        with pytest.raises(ValueError):
            ExecutionBudget()

    def test_step_budget_trips_at_the_boundary(self):
        budget = ExecutionBudget(max_steps=3)
        budget.start()
        for _ in range(3):
            budget.charge()
        with pytest.raises(ExecutionBudgetExceeded):
            budget.charge()

    def test_wall_clock_budget_trips(self):
        budget = ExecutionBudget(max_seconds=0.0)
        budget.start()
        with pytest.raises(ExecutionBudgetExceeded):
            for _ in range(4096):
                budget.charge()

    def test_reference_interpreter_trips(self):
        with pytest.raises(ExecutionBudgetExceeded):
            run_reference(DIVERGENT, budget_steps=1000)

    def test_rc_interpreter_trips(self):
        with pytest.raises(ExecutionBudgetExceeded):
            run_baseline(DIVERGENT, PipelineOptions(
                execution_engine="tree", execution_budget_steps=1000
            ))

    def test_baseline_vm_trips(self):
        with pytest.raises(ExecutionBudgetExceeded):
            run_baseline(DIVERGENT, PipelineOptions(execution_budget_steps=1000))

    def test_vm_trips(self):
        options = PipelineOptions()
        options.execution_budget_steps = 1000
        with pytest.raises(ExecutionBudgetExceeded):
            run_mlir(DIVERGENT, options)

    def test_cfg_interpreter_trips(self):
        options = PipelineOptions()
        options.execution_engine = "tree"
        options.execution_budget_steps = 1000
        with pytest.raises(ExecutionBudgetExceeded):
            run_mlir(DIVERGENT, options)

    def test_bounded_programs_run_unaffected_under_budget(self):
        options = PipelineOptions()
        options.execution_budget_steps = 1_000_000
        assert run_mlir(SOURCE, options).value == run_mlir(SOURCE).value

    def test_rewrite_budget_trips_and_counts(self):
        from repro.transforms.canonicalize import CanonicalizePass
        from repro.ir.parser import parse_module

        options = PipelineOptions(capture_ir=("rgn",))
        rgn_ir = MlirCompiler(options).compile(SOURCE).captured_ir["rgn"]
        pass_ = CanonicalizePass()
        pass_.budget_seconds = 0.0
        with telemetry_session() as t:
            with pytest.raises(RewriteBudgetExceeded):
                pass_.run(parse_module(rgn_ir))
            snapshot = t.metrics.snapshot()
        assert snapshot["resilience.budget.trips"] >= 1

    def test_diverging_program_is_a_differential_finding(self):
        from repro.fuzz.differential import DifferentialFailure, run_matrix

        with pytest.raises(DifferentialFailure) as excinfo:
            run_matrix(DIVERGENT, budget_steps=5000)
        assert "ExecutionBudgetExceeded" in excinfo.value.reason


# ---------------------------------------------------------------------------
# Recursion-limit hygiene
# ---------------------------------------------------------------------------


class TestRecursionLimit:
    def test_context_manager_restores_the_previous_limit(self):
        before = sys.getrecursionlimit()
        with recursion_limit(before + 1000):
            assert sys.getrecursionlimit() == before + 1000
        assert sys.getrecursionlimit() == before

    def test_never_lowers_the_limit(self):
        before = sys.getrecursionlimit()
        with recursion_limit(10):
            assert sys.getrecursionlimit() == before
        assert sys.getrecursionlimit() == before

    def test_engines_leave_the_process_limit_unchanged(self):
        before = sys.getrecursionlimit()
        run_reference(SOURCE)
        run_baseline(SOURCE, PipelineOptions(execution_engine="tree"))
        run_baseline(SOURCE, PipelineOptions(execution_engine="vm"))
        run_mlir(SOURCE)
        tree_options = PipelineOptions()
        tree_options.execution_engine = "tree"
        run_mlir(SOURCE, tree_options)
        assert sys.getrecursionlimit() == before

    def test_default_limit_is_generous(self):
        assert DEFAULT_RECURSION_LIMIT >= 100_000


# ---------------------------------------------------------------------------
# CLI contracts
# ---------------------------------------------------------------------------


class TestCliExitCodes:
    def test_success_is_0(self, lean_file, capsys):
        assert cli_main([lean_file]) == 0
        capsys.readouterr()

    def test_frontend_parse_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.lean"
        bad.write_text("def main : Nat :=", encoding="utf-8")
        assert cli_main([str(bad)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_frontend_type_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.lean"
        bad.write_text("def main : Nat := true", encoding="utf-8")
        assert cli_main([str(bad)]) == 3
        capsys.readouterr()

    def test_unreadable_input_is_2(self, capsys):
        assert cli_main(["/nonexistent/path.lean"]) == 2
        capsys.readouterr()

    def test_bad_fault_spec_is_2(self, lean_file, capsys):
        assert cli_main([lean_file, "--inject-fault", "no.such.site"]) == 2
        capsys.readouterr()

    def test_pipeline_crash_is_4_and_prints_bundle(
        self, lean_file, tmp_path, capsys
    ):
        crash_dir = tmp_path / "crashes"
        code = cli_main([
            lean_file,
            "--inject-fault", "pass.dce:1",
            "--crash-dir", str(crash_dir),
        ])
        err = capsys.readouterr().err
        assert code == 4
        bundle = load_bundle(bundle_path_from(err))
        assert bundle.failing_pass == "dce"

    def test_execution_budget_trip_is_5(self, tmp_path, capsys):
        program = tmp_path / "spin.lean"
        program.write_text(DIVERGENT, encoding="utf-8")
        assert cli_main([str(program), "--budget-steps", "1000"]) == 5
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ("default", "baseline"))
    def test_vm_fault_is_5(self, variant, lean_file, capsys):
        assert cli_main([
            lean_file, "--variant", variant, "--inject-fault", "vm.dispatch:1",
        ]) == 5
        assert "vm.dispatch" in capsys.readouterr().err

    def test_opt_lists_fault_sites(self, capsys):
        code, out, _ = run_opt(capsys, "--list-fault-sites")
        assert code == 0
        for site in STATIC_SITES:
            assert site in out

    def test_opt_rejects_bundle_with_file_or_pipeline(
        self, tmp_path, rgn_file, capsys
    ):
        with pytest.raises(SystemExit):
            opt_main([
                rgn_file, "--pipeline-from-bundle", str(tmp_path)
            ])
        capsys.readouterr()

    def test_opt_missing_bundle_is_2(self, tmp_path, capsys):
        code, _, err = run_opt(
            capsys, "--pipeline-from-bundle", str(tmp_path / "nope")
        )
        assert code == 2
        assert "cannot load bundle" in err


# ---------------------------------------------------------------------------
# Drift guards: docs/RESILIENCE.md vs the code
# ---------------------------------------------------------------------------

_SITE_TOKEN = re.compile(
    r"`((?:pass|cache|vm|driver)\.[a-z.\-]+|verify)`"
)


def documented_sites() -> set:
    """Backticked site-shaped tokens in the fault-injection section."""
    text = RESILIENCE_MD.read_text(encoding="utf-8")
    section = text.split("## Fault-injection sites", 1)[1].split("\n## ", 1)[0]
    return set(_SITE_TOKEN.findall(section))


class TestSiteCatalogueDrift:
    def test_resilience_md_exists(self):
        assert RESILIENCE_MD.is_file(), "docs/RESILIENCE.md is missing"

    def test_every_site_is_documented(self):
        missing = sorted(set(known_sites()) - documented_sites())
        assert not missing, (
            "fault sites missing from docs/RESILIENCE.md's "
            f"'Fault-injection sites' section: {missing}"
        )

    def test_every_documented_site_exists(self):
        # `pass.<name>` is the generic placeholder row, not a site.
        stale = sorted(
            documented_sites() - set(known_sites()) - {"pass.<name>"}
        )
        assert not stale, (
            f"docs/RESILIENCE.md documents unknown fault sites: {stale}"
        )
