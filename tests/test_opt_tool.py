"""Tests for the ``python -m repro.opt`` textual pipeline tool.

Three layers:

* CLI surface — ``--list-passes`` / ``--show-pipeline`` / telemetry flags,
  exit codes for spec errors (2), input errors (2) and IR errors (1),
* the acceptance contract: running the default pipeline over ``--emit
  rgn`` output reproduces the compiler's rgn-opt phase **byte-identically**,
* focused per-pass regression tests written against :mod:`filecheck`
  (FileCheck-lite CHECK / CHECK-NOT scripts over the tool's output) —
  the textual-IR counterpart of the whole-pipeline assertions in
  ``tests/test_transforms.py``.
"""

import io
import json

import pytest

from filecheck import FileCheckError, filecheck
from repro.backend.pipeline import MlirCompiler, PipelineOptions
from repro.dialects import arith, lp, rgn
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.ir import Builder, FunctionType, InsertionPoint, box, i1, i64, verify
from repro.ir.printer import print_module
from repro.opt import default_pipeline_spec, main as opt_main
from repro.rewrite.registry import registered_passes
from repro.transforms.canonicalize import ABLATABLE_FAMILIES

SOURCE = """
def add (a b : Nat) : Nat := a + b

def double (n : Nat) : Nat := add n n

def main : Nat := double (add 4 17)
"""


def run_opt(capsys, *args):
    code = opt_main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def compiled():
    """The compiler's own rgn / rgn-opt snapshots of SOURCE."""
    options = PipelineOptions(capture_ir=("rgn", "rgn-opt"))
    artifacts = MlirCompiler(options).compile(SOURCE)
    return artifacts.captured_ir


@pytest.fixture
def rgn_file(tmp_path, compiled):
    path = tmp_path / "input.mlir"
    path.write_text(compiled["rgn"], encoding="utf-8")
    return str(path)


def build_ir(build) -> str:
    """Textual IR of a module assembled by ``build(module)``."""
    module = ModuleOp()
    build(module)
    verify(module)
    return print_module(module)


def new_func(module, name, inputs, results):
    func = FuncOp(name, FunctionType(inputs, results))
    module.append(func)
    return func, Builder(InsertionPoint.at_end(func.entry_block))


def region_returning_int(builder, value):
    val = builder.create(rgn.ValOp)
    inner = Builder(InsertionPoint.at_end(val.body_block))
    c = inner.create(lp.IntOp, value)
    inner.create(lp.ReturnOp, c.result())
    return val


class TestCliSurface:
    def test_list_passes_names_every_registered_pass(self, capsys):
        code, out, _ = run_opt(capsys, "--list-passes")
        assert code == 0
        for name in registered_passes():
            assert name in out

    def test_show_pipeline_default(self, capsys):
        code, out, _ = run_opt(capsys, "--show-pipeline")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == default_pipeline_spec() == (
            "cse,region-gvn,canonicalize,dce"
        )
        assert lines[1].startswith("fingerprint: ")
        assert len(lines[1].split(": ")[1]) == 16

    def test_show_pipeline_canonicalises(self, capsys):
        code, out, _ = run_opt(
            capsys,
            "--show-pipeline",
            "--pipeline", " cse ,canonicalize{engine=worklist,ablate=case-elim}",
        )
        assert code == 0
        assert out.splitlines()[0] == (
            "cse,canonicalize{ablate=case-elim,engine=worklist}"
        )

    def test_show_pipeline_rejects_bad_spec(self, capsys):
        code, _, err = run_opt(capsys, "--show-pipeline", "--pipeline", "nope")
        assert code == 2
        assert "unknown pass 'nope'" in err

    def test_unknown_pass_is_a_spec_error(self, rgn_file, capsys):
        code, _, err = run_opt(capsys, rgn_file, "--pipeline", "nope")
        assert code == 2
        assert "unknown pass 'nope'" in err

    def test_input_file_required(self, capsys):
        with pytest.raises(SystemExit):
            opt_main([])
        assert "input file is required" in capsys.readouterr().err

    def test_missing_input_file(self, capsys):
        code, _, err = run_opt(capsys, "/nonexistent/input.mlir")
        assert code == 2
        assert "error:" in err

    def test_unparsable_input(self, tmp_path, capsys):
        path = tmp_path / "broken.mlir"
        path.write_text("this is not IR\n", encoding="utf-8")
        code, _, err = run_opt(capsys, str(path))
        assert code == 1
        assert "error:" in err

    def test_stdin_input(self, compiled, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(compiled["rgn"]))
        code, out, _ = run_opt(capsys, "-")
        assert code == 0
        assert out == compiled["rgn-opt"]

    def test_output_file(self, rgn_file, compiled, tmp_path, capsys):
        out_path = tmp_path / "result.mlir"
        code, out, _ = run_opt(capsys, rgn_file, "-o", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text(encoding="utf-8") == compiled["rgn-opt"]

    def test_print_ir_after(self, rgn_file, capsys):
        code, _, err = run_opt(capsys, rgn_file, "--print-ir-after", "cse")
        assert code == 0
        assert "IR Dump After cse" in err

    def test_failing_pass_dumps_its_ir(self, rgn_file, tmp_path, capsys):
        code, _, err = run_opt(
            capsys, rgn_file, "--inject-fault", "pass.dce:1",
            "--crash-dir", str(tmp_path),
        )
        assert code == 1
        assert "// -----// IR Dump After dce Failed (InjectedFault)" in err
        assert "crash bundle: " in err

    def test_telemetry_outputs(self, rgn_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        code, _, _ = run_opt(
            capsys, rgn_file,
            "--trace-out", str(trace), "--metrics-json", str(metrics),
        )
        assert code == 0
        events = json.loads(trace.read_text(encoding="utf-8"))["traceEvents"]
        assert any(e["name"] == "pass:cse" for e in events)
        snapshot = json.loads(metrics.read_text(encoding="utf-8"))["metrics"]
        assert any(key.startswith("rewrite.") for key in snapshot)


class TestReproducesCompiler:
    def test_default_pipeline_matches_rgn_opt_byte_identically(
        self, rgn_file, compiled, capsys
    ):
        code, out, _ = run_opt(capsys, rgn_file)
        assert code == 0
        assert out == compiled["rgn-opt"]

    def test_verify_roundtrip_passes_on_real_ir(self, rgn_file, capsys):
        code, _, err = run_opt(capsys, rgn_file, "--verify-roundtrip")
        assert code == 0
        assert err == ""

    def test_every_registered_pass_runs_alone(self, rgn_file, capsys):
        # The CI smoke matrix in miniature: each registered pass must be
        # able to run by itself over real rgn-level IR.
        for name in registered_passes():
            code, _, err = run_opt(capsys, rgn_file, "--pipeline", name)
            assert code == 0, f"pass {name!r} failed: {err}"


def only_family(family: str) -> str:
    """The ``canonicalize`` drain narrowed to one pattern family, as a spec."""
    ablated = [f"ablate={other}" for other in ABLATABLE_FAMILIES if other != family]
    return "canonicalize{" + ",".join(ablated) + "}"


class TestPerPassFileCheck:
    def test_constant_fold_folds_comparison(self, tmp_path, capsys):
        # tests/test_transforms.py::TestConstantFolding::test_folds_comparison,
        # as a textual per-pass regression.
        def build(module):
            _, builder = new_func(module, "f", [], [i1])
            a = builder.create(arith.ConstantOp, 42)
            b = builder.create(arith.ConstantOp, 42)
            s = builder.create(arith.CmpIOp, "eq", a.result(), b.result())
            builder.create(ReturnOp, [s.result()])

        path = tmp_path / "fold.mlir"
        path.write_text(build_ir(build), encoding="utf-8")
        code, out, _ = run_opt(
            capsys, str(path), "--pipeline", only_family("constant-fold") + ",dce"
        )
        assert code == 0
        filecheck(out, """
            CHECK: "func.func"
            CHECK: value = 1 : i1
            CHECK-NOT: "arith.cmpi"
            CHECK: "func.return"
        """)

    def test_case_elimination_takes_known_branch(self, tmp_path, capsys):
        # ...::TestCaseElimination::test_select_of_constant_true: a select
        # on a constant condition collapses to the matching region's body.
        def build(module):
            _, builder = new_func(module, "f", [], [box])
            a = region_returning_int(builder, 3)
            b = region_returning_int(builder, 5)
            t = builder.create(arith.ConstantOp, 1, i1)
            sel = builder.create(arith.SelectOp, t.result(), a.result(), b.result())
            builder.create(rgn.RunOp, sel.result())

        path = tmp_path / "case.mlir"
        path.write_text(build_ir(build), encoding="utf-8")
        code, out, _ = run_opt(
            capsys, str(path), "--pipeline", only_family("case-elim") + ",dce"
        )
        assert code == 0
        filecheck(out, """
            CHECK: "func.func"
            CHECK-NOT: "arith.select"
            CHECK-NOT: "rgn.run"
            CHECK: "lp.int"{{.*}}value = 3
            CHECK: "lp.return"
            CHECK-NOT: value = 5
        """)

    def test_region_gvn_merges_identical_branches(self, tmp_path, capsys):
        # ...::TestRegionGVN::test_gvn_merges_identical_regions: both arms
        # return 7, so gvn + common-branch + case-elim leave a straight line.
        def build(module):
            func, builder = new_func(module, "f", [i1], [box])
            a = region_returning_int(builder, 7)
            b = region_returning_int(builder, 7)
            sel = builder.create(
                arith.SelectOp, func.arguments[0], a.result(), b.result()
            )
            builder.create(rgn.RunOp, sel.result())

        path = tmp_path / "gvn.mlir"
        path.write_text(build_ir(build), encoding="utf-8")
        code, out, _ = run_opt(
            capsys, str(path), "--pipeline",
            f"region-gvn,{only_family('common-branch')},"
            f"{only_family('case-elim')},dce",
        )
        assert code == 0
        filecheck(out, """
            CHECK: "func.func"
            CHECK-NOT: "arith.select"
            CHECK-NOT: "rgn.val"
            CHECK: "lp.int"{{.*}}value = 7
            CHECK: "lp.return"
        """)

    def test_cse_merges_identical_constants(self, tmp_path, capsys):
        def build(module):
            _, builder = new_func(module, "f", [], [i64])
            a = builder.create(arith.ConstantOp, 7)
            b = builder.create(arith.ConstantOp, 7)
            s = builder.create(arith.CmpIOp, "eq", a.result(), b.result())
            builder.create(ReturnOp, [s.result()])

        path = tmp_path / "cse.mlir"
        path.write_text(build_ir(build), encoding="utf-8")
        code, out, _ = run_opt(capsys, str(path), "--pipeline", "cse,dce")
        assert code == 0
        filecheck(out, """
            CHECK: value = 7
            CHECK-NOT: value = 7
        """)


class TestFileCheckHelper:
    def test_check_not_catches_violation(self):
        with pytest.raises(FileCheckError, match="CHECK-NOT"):
            filecheck("alpha\nforbidden\nomega\n", """
                CHECK: alpha
                CHECK-NOT: forbidden
                CHECK: omega
            """)

    def test_missing_check_reports_remaining_input(self):
        with pytest.raises(FileCheckError, match="not found"):
            filecheck("only this\n", "CHECK: something else")

    def test_regex_spans(self):
        filecheck("%x_7 = op\n", "CHECK: %{{[a-z0-9_$]+}} = op")


class TestMalformedInput:
    """Exit-code contract on bad inputs: IR errors are 1, spec errors 2,
    and every diagnostic names where in the text things went wrong."""

    def test_truncated_ir_exits_1_with_offset(self, tmp_path, compiled, capsys):
        text = compiled["rgn"]
        path = tmp_path / "truncated.mlir"
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        code, _, err = run_opt(capsys, str(path))
        assert code == 1
        assert "error:" in err
        assert "at offset" in err

    def test_undefined_value_exits_1(self, tmp_path, compiled, capsys):
        broken = compiled["rgn"].replace("%r_", "%undef_", 1)
        path = tmp_path / "undef.mlir"
        path.write_text(broken, encoding="utf-8")
        code, _, err = run_opt(capsys, str(path))
        assert code == 1
        assert "undefined value" in err

    def test_unknown_dialect_op_rides_through_generically(
        self, tmp_path, compiled, capsys
    ):
        # Unregistered op names parse into generic operations (the MLIR
        # convention) and must survive the pipeline untouched rather than
        # erroring or being silently dropped.
        exotic = compiled["rgn"].replace('"lp.int"', '"exotic.op"', 1)
        path = tmp_path / "exotic.mlir"
        path.write_text(exotic, encoding="utf-8")
        code, out, _ = run_opt(capsys, str(path), "--pipeline", "cse")
        assert code == 0
        assert '"exotic.op"' in out

    def test_spec_syntax_error_exits_2_with_offset(self, rgn_file, capsys):
        code, _, err = run_opt(capsys, rgn_file, "--pipeline", "cse dce")
        assert code == 2
        assert "expected ',' between passes at offset 4 in 'cse dce'" in err

    def test_spec_missing_pass_name_offset(self, rgn_file, capsys):
        code, _, err = run_opt(capsys, rgn_file, "--pipeline", "cse,,dce")
        assert code == 2
        assert "expected a pass name at offset 4 in 'cse,,dce'" in err

    def test_empty_spec_exits_2(self, rgn_file, capsys):
        code, _, err = run_opt(capsys, rgn_file, "--pipeline", "")
        assert code == 2
        assert "empty pipeline spec" in err

    def test_unterminated_options_exit_2(self, rgn_file, capsys):
        code, _, err = run_opt(capsys, rgn_file, "--pipeline", "canonicalize{engine=rescan")
        assert code == 2
        assert "unterminated '{'" in err

    def test_bad_option_value_exits_2(self, rgn_file, capsys):
        code, _, err = run_opt(capsys, rgn_file, "--pipeline", "canonicalize{engine=zz}")
        assert code == 2
        assert "not in" in err
