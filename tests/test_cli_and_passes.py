"""Tests for the ``python -m repro`` CLI and pass-manager statistics."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import VARIANTS, main as cli_main
from repro.backend.pipeline import MlirCompiler, PipelineOptions
from repro.dialects.builtin import ModuleOp
from repro.eval.testsuite import let_spine_program
from repro.ir.parser import parse_module
from repro.opt import main as opt_main
from repro.rewrite.pass_manager import PassManager
from repro.telemetry import telemetry_session
from repro.transforms.dce import DeadCodeEliminationPass

SOURCE = """
inductive List where
| nil
| cons (head : Nat) (tail : List)

def upto (n : Nat) : List :=
  if n == 0 then List.nil else List.cons n (upto (n - 1))

def sum (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons h t => h + sum t

def main : Nat := sum (upto 10)
"""


CORPUS = Path(__file__).resolve().parent / "corpus"


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "program.lean"
    path.write_text(SOURCE)
    return str(path)


class TestCli:
    def test_runs_default_pipeline(self, source_file, capsys):
        assert cli_main([source_file]) == 0
        out = capsys.readouterr().out
        assert "result: 55" in out

    @pytest.mark.parametrize(
        "variant",
        ("baseline", "simplifier", "rgn", "none", "rc-naive", "rc-opt", "rc-opt+reuse"),
    )
    def test_variants_agree(self, source_file, capsys, variant):
        assert cli_main([source_file, "--variant", variant]) == 0
        assert "result: 55" in capsys.readouterr().out

    def test_metrics_flag(self, source_file, capsys):
        assert cli_main([source_file, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "[metrics]" in out and "[heap]" in out and "[rc]" in out

    def test_verbose_prints_span_tree_to_stderr(self, source_file, capsys):
        assert cli_main([source_file, "--variant", "rc-opt", "--verbose"]) == 0
        out, err = capsys.readouterr()
        assert f"result: {EXPECTED}" in out
        assert "pass:cse" in err and "phase:rgn-opt" in err
        assert "[rc_opt] mode=opt" in err

    @pytest.mark.parametrize("variant", ("default", "rc-opt", "baseline"))
    def test_verbose_leaves_stdout_unchanged(self, source_file, capsys, variant):
        assert cli_main([source_file, "--variant", variant, "--metrics"]) == 0
        plain = capsys.readouterr().out
        assert cli_main(
            [source_file, "--variant", variant, "--metrics", "--verbose"]
        ) == 0
        out, err = capsys.readouterr()
        assert out == plain
        assert "compile" in err

    def test_opt_verbose_leaves_stdout_unchanged(self, source_file, tmp_path, capsys):
        assert cli_main([source_file, "--emit", "rgn"]) == 0
        ir_file = tmp_path / "input.mlir"
        ir_file.write_text(capsys.readouterr().out)
        assert opt_main([str(ir_file)]) == 0
        plain = capsys.readouterr().out
        assert opt_main([str(ir_file), "--verbose"]) == 0
        out, err = capsys.readouterr()
        assert out == plain
        # The span tree carries each pass run's counters.
        assert re.search(r"^pass:cse .* ops-scanned=\d+", err, re.M)
        # The output is still IR that repro.opt reads back.
        ir_file.write_text(out)
        assert opt_main([str(ir_file)]) == 0

    def test_emit_lp_and_cfg(self, source_file, capsys):
        assert cli_main([source_file, "--emit", "lp"]) == 0
        assert "lp.construct" in capsys.readouterr().out
        assert cli_main([source_file, "--emit", "cfg"]) == 0
        assert "func.func" in capsys.readouterr().out

    @pytest.mark.parametrize("variant", ("default", "rgn", "none", "rc-opt+reuse"))
    def test_emit_lp_prints_the_lp_module_not_the_cfg(self, capsys, variant):
        # The lowerings rewrite the lp module in place, so --emit lp must
        # print the snapshot taken before lp-to-rgn, not the final module.
        program = str(CORPUS / "seed_list_fold_map.lean")
        assert cli_main([program, "--variant", variant, "--emit", "lp"]) == 0
        lp_text = capsys.readouterr().out
        assert cli_main([program, "--variant", variant, "--emit", "cfg"]) == 0
        cfg_text = capsys.readouterr().out
        assert '"cf.' not in lp_text
        assert '"lp.switch"' in lp_text
        assert lp_text != cfg_text
        # The snapshot is IR that the parser (and so repro.opt) reads back.
        assert isinstance(parse_module(lp_text), ModuleOp)

    def test_emit_c_requires_baseline(self, source_file, capsys):
        assert cli_main([source_file, "--emit", "c"]) == 2
        assert cli_main([source_file, "--variant", "baseline", "--emit", "c"]) == 0
        assert "lean_object*" in capsys.readouterr().out

    def test_missing_file_is_an_error(self, capsys):
        assert cli_main(["/nonexistent/path.lean"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stdin_input(self, source_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(SOURCE))
        assert cli_main(["-"]) == 0
        assert "result: 55" in capsys.readouterr().out


ALL_VARIANTS = (
    "default", "baseline", "simplifier", "rgn", "none",
    "rc-naive", "rc-opt", "rc-opt+reuse",
)

#: The value the reference interpreter computes for SOURCE.
EXPECTED = 55


class TestCliEdgeCases:
    """Edge cases: stdin, the --emit matrix and --rc-mode overrides."""

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_stdin_agrees_with_reference_on_every_variant(
        self, capsys, monkeypatch, variant
    ):
        import io

        from repro.backend.pipeline import run_reference

        assert run_reference(SOURCE) == EXPECTED
        monkeypatch.setattr("sys.stdin", io.StringIO(SOURCE))
        assert cli_main(["-", "--variant", variant]) == 0
        assert f"result: {EXPECTED}" in capsys.readouterr().out

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("emit", ("c", "lp", "cfg"))
    def test_emit_matrix(self, source_file, capsys, variant, emit):
        """Every variant × --emit combination: baseline emits only C, the
        lp+rgn variants emit only lp/cfg; emitted artifacts are non-empty."""
        code = cli_main([source_file, "--variant", variant, "--emit", emit])
        out, err = capsys.readouterr()
        baseline = variant == "baseline"
        if (baseline and emit == "c") or (not baseline and emit != "c"):
            assert code == 0
            assert len(out.strip()) > 100  # a real artifact, not a stub
            marker = {"c": "lean_object*", "lp": "lp.", "cfg": "func.func"}[emit]
            assert marker in out
        else:
            assert code == 2
            assert "error:" in err

    @pytest.mark.parametrize("rc_mode", ("naive", "opt", "opt+reuse"))
    def test_rc_mode_overrides_variant(self, source_file, capsys, rc_mode):
        """--rc-mode wins over the level implied by --variant."""
        code = cli_main(
            [source_file, "--variant", "rc-naive", "--rc-mode", rc_mode,
             "--verbose"]
        )
        assert code == 0
        out, err = capsys.readouterr()
        assert f"result: {EXPECTED}" in out
        if rc_mode == "naive":
            assert "[rc_opt]" not in err
        else:
            assert f"[rc_opt] mode={rc_mode}" in err

    def test_rc_mode_overrides_baseline_variant(self, source_file, capsys):
        code = cli_main(
            [source_file, "--variant", "baseline", "--rc-mode", "opt",
             "--verbose"]
        )
        assert code == 0
        out, err = capsys.readouterr()
        assert f"result: {EXPECTED}" in out
        assert "[rc_opt] mode=opt" in err

    def test_rc_mode_changes_emitted_artifact(self, source_file, capsys):
        """The override must reach codegen: optimized RC emits fewer
        lp.inc/lp.dec ops than naive."""

        def emitted_rc_ops(rc_mode):
            assert cli_main(
                [source_file, "--emit", "lp", "--rc-mode", rc_mode]
            ) == 0
            out = capsys.readouterr().out
            return out.count("lp.inc") + out.count("lp.dec")

        assert emitted_rc_ops("opt") < emitted_rc_ops("naive")


class TestPassStatistics:
    def test_statistics_populated(self):
        artifacts = MlirCompiler(PipelineOptions()).compile(SOURCE)
        module = artifacts.cfg_module
        assert isinstance(module, ModuleOp)

        manager = PassManager([DeadCodeEliminationPass()])
        manager.run(module)
        assert list(manager.statistics) == ["dce"]

    def test_span_tree_shows_every_ran_pass(self):
        artifacts = MlirCompiler(PipelineOptions()).compile(SOURCE)
        manager = PassManager([DeadCodeEliminationPass()])
        with telemetry_session() as session:
            manager.run(artifacts.cfg_module)
        report = session.tracer.report()
        assert "pass:dce" in report
        assert "verify:dce" in report


# ---------------------------------------------------------------------------
# Start-up: what a fresh ``python -m repro`` process imports
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules the default compile-and-run path never needs at import.
NOT_IMPORTED_AT_STARTUP = (
    "dataclasses",
    "inspect",
    "json",
    "platform",
    "hashlib",
    "repro.ir.parser",
    "repro.backend.c_backend",
    "repro.interp.reference",
    "repro.resilience.bundle",
)

#: Every package of ``repro`` that declares ``__all__``.
PACKAGES = (
    "backend", "dialects", "eval", "fuzz", "interp", "ir", "lambda_pure",
    "lambda_rc", "lean", "rc_opt", "resilience", "rewrite", "runtime",
    "telemetry", "transforms",
)


def run_fresh(*args, cwd=None) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter over ``src``.

    Lazy imports can only be checked in a fresh process: in this one,
    earlier tests have already imported every module.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


class TestStartup:
    def test_cli_import_skips_unused_modules(self):
        done = run_fresh(
            "-c", "import sys, repro.__main__; print(*sorted(sys.modules))"
        )
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        assert "repro.backend.pipeline" in loaded
        assert loaded.isdisjoint(NOT_IMPORTED_AT_STARTUP), sorted(
            loaded.intersection(NOT_IMPORTED_AT_STARTUP)
        )

    def test_no_module_imports_dataclasses(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if "dataclasses" in modules:
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert offenders == []

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (("--variant", "baseline", "--emit", "c"), "lean_object*"),
            (("--variant", "baseline"), f"result: {EXPECTED}"),
            (("--execution-engine", "tree"), f"result: {EXPECTED}"),
            (("--variant", "baseline", "--execution-engine", "tree"),
             f"result: {EXPECTED}"),
        ],
        ids=["emit-c", "baseline", "tree", "baseline-tree"],
    )
    def test_lazy_cli_paths_in_a_fresh_process(self, source_file, flags, expected):
        done = run_fresh("-m", "repro", source_file, *flags)
        assert done.returncode == 0, done.stderr
        assert expected in done.stdout

    def test_pass_crash_bundle_in_a_fresh_process(self, source_file, tmp_path):
        crash_dir = tmp_path / "crashes"
        done = run_fresh(
            "-m", "repro", source_file, "--inject-fault", "pass.cse:1",
            "--crash-dir", str(crash_dir),
        )
        assert done.returncode == 4, done.stderr
        match = re.search(r"^crash bundle: (.+)$", done.stderr, re.M)
        assert match, done.stderr
        bundle = Path(match.group(1))
        assert (bundle / "bundle.json").is_file()

        replay = run_fresh(
            "-m", "repro.opt", "--pipeline-from-bundle", str(bundle),
            "--crash-dir", str(tmp_path / "replay"),
        )
        assert replay.returncode == 1, replay.stderr
        replayed = re.search(r"^crash bundle: (.+)$", replay.stderr, re.M)
        assert replayed, replay.stderr
        assert Path(replayed.group(1)).name == bundle.name

    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_public_name_imports_in_a_fresh_process(self, package):
        script = (
            "import importlib, sys\n"
            "name = 'repro.' + sys.argv[1]\n"
            "for export in importlib.import_module(name).__all__:\n"
            "    exec(f'from {name} import {export}')\n"
            "print(len(importlib.import_module(name).__all__))\n"
        )
        done = run_fresh("-c", script, package)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) > 0


class TestLongLetSpine:
    """A function of 300 ``let``s compiles and runs under every variant.

    Each variant runs in a fresh ``python -m repro``: under pytest the test
    runner's own frames use part of the recursion budget, so only a new
    process sees the stack a user's run sees.
    """

    def test_every_variant_runs_a_300_let_function(self, tmp_path):
        source, expected = let_spine_program(300)
        path = tmp_path / "spine.lean"
        path.write_text(source)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        children = {
            variant: subprocess.Popen(
                [sys.executable, "-m", "repro", str(path), "--variant", variant],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for variant in VARIANTS
        }
        outcomes = {}
        for variant, child in children.items():
            stdout, stderr = child.communicate(timeout=300)
            outcomes[variant] = (child.returncode, stdout.strip(), stderr.strip())
        assert "baseline" in outcomes
        assert outcomes == {
            variant: (0, f"result: {expected}", "") for variant in VARIANTS
        }


class TestFrontendNestingOverflow:
    """A program that nests deeper than a recursive frontend layer can go
    is a frontend error: ``python -m repro`` exits 3 and names the layer.

    Each case runs in a fresh process, for the reason
    :class:`TestLongLetSpine` gives.
    """

    #: Checks that λpure lowering turns its own overflow into a
    #: ``LoweringError``: the program parses and type checks at the default
    #: limit, and lowering then runs under a limit it cannot fit in.
    LOWERING = (
        "import sys\n"
        "from repro.lambda_pure import LoweringError, lower_program\n"
        "from repro.lean import check_program, parse_program\n"
        "surface = parse_program(sys.stdin.read())\n"
        "env = check_program(surface)\n"
        "sys.setrecursionlimit(80)\n"
        "try:\n"
        "    lower_program(surface, env)\n"
        "except LoweringError as error:\n"
        "    print(error)\n"
    )

    def test_each_layer_reports_its_overflow(self, tmp_path):
        spine = tmp_path / "spine.lean"
        spine.write_text(let_spine_program(520)[0])
        parens = tmp_path / "parens.lean"
        parens.write_text("def main : Nat := " + "(" * 400 + "1" + ")" * 400 + "\n")
        sums = "def main : Nat := " + "1 + (" * 100 + "1" + ")" * 100 + "\n"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        commands = {
            "type checker": [sys.executable, "-m", "repro", str(spine)],
            "parser": [sys.executable, "-m", "repro", str(parens)],
            "λpure lowering": [sys.executable, "-c", self.LOWERING],
        }
        children = {
            layer: subprocess.Popen(
                command, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, encoding="utf-8",
            )
            for layer, command in commands.items()
        }
        outcomes = {}
        for layer, child in children.items():
            stdin = sums if layer == "λpure lowering" else ""
            stdout, stderr = child.communicate(stdin, timeout=300)
            outcomes[layer] = (child.returncode, stdout.strip(), stderr.strip())
        too_deep = "the program nests too deeply for {} (Python's recursion limit was reached)"
        assert outcomes == {
            "type checker": (3, "", "error: " + too_deep.format("the type checker")),
            "parser": (3, "", "error: " + too_deep.format("the parser")),
            "λpure lowering": (0, too_deep.format("λpure lowering"), ""),
        }
