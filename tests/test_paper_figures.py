"""Tests that reproduce the paper's worked IR examples (Figures 1, 4-8 and
the §IV-B illustrations) and check the claimed before/after shapes."""

from repro.backend import MlirCompiler, PipelineOptions, run_mlir, run_reference
from repro.backend.pipeline import Frontend
from repro.backend.lp_codegen import generate_lp_module
from repro.backend.lp_to_rgn import lower_lp_to_rgn
from repro.dialects import arith, lp, rgn
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp
from repro.ir import Builder, FunctionType, InsertionPoint, box, i1, verify
from repro.lambda_rc import insert_rc
from repro.rewrite import PassManager
from repro.transforms import (
    CanonicalizePass,
    DeadCodeEliminationPass,
    RegionGVNPass,
    case_elimination_patterns,
    common_branch_patterns,
    dead_region_patterns,
)


def _region_returning(builder, value):
    val = builder.create(rgn.ValOp)
    inner = Builder(InsertionPoint.at_end(val.body_block))
    c = inner.create(lp.IntOp, value)
    inner.create(lp.ReturnOp, c.result())
    return val


def op_names(root):
    return [op.name for op in root.walk() if op is not root]


class TestFigure1:
    """Figure 1: the three functional optimisations as SSA rewrites."""

    def test_dead_expression_elimination(self):
        # out = let x = e in y  ==>  out = y, when x is unused.
        module = ModuleOp()
        func = FuncOp("f", FunctionType([box], [box]))
        module.append(func)
        builder = Builder(InsertionPoint.at_end(func.entry_block))
        _region_returning(builder, 1)  # %x = rgn.val { e }, never run
        builder.create(lp.ReturnOp, func.arguments[0])
        CanonicalizePass(dead_region_patterns()).run(module)
        assert "rgn.val" not in op_names(func)

    def test_case_elimination(self):
        # out = case True of True -> e | False -> f  ==>  out = e
        module = ModuleOp()
        func = FuncOp("f", FunctionType([], [box]))
        module.append(func)
        builder = Builder(InsertionPoint.at_end(func.entry_block))
        e = _region_returning(builder, 3)
        f = _region_returning(builder, 5)
        true = builder.create(arith.ConstantOp, 1, i1)
        selected = builder.create(arith.SelectOp, true.result(), e.result(), f.result())
        builder.create(rgn.RunOp, selected.result())
        PassManager(
            [CanonicalizePass(case_elimination_patterns()), DeadCodeEliminationPass()]
        ).run(module)
        ints = [op.value for op in func.walk() if isinstance(op, lp.IntOp)]
        assert ints == [3]

    def test_common_branch_elimination(self):
        # out = case x of True -> e | False -> e  ==>  out = e
        module = ModuleOp()
        func = FuncOp("f", FunctionType([i1], [box]))
        module.append(func)
        builder = Builder(InsertionPoint.at_end(func.entry_block))
        e1 = _region_returning(builder, 7)
        e2 = _region_returning(builder, 7)
        selected = builder.create(
            arith.SelectOp, func.arguments[0], e1.result(), e2.result()
        )
        builder.create(rgn.RunOp, selected.result())
        PassManager(
            [
                RegionGVNPass(),
                CanonicalizePass(common_branch_patterns()),
                CanonicalizePass(case_elimination_patterns()),
                DeadCodeEliminationPass(),
            ]
        ).run(module)
        assert op_names(func) == ["lp.int", "lp.return"]


class TestFigure4:
    INT_USAGE = """
def intUsage (n : Nat) : Nat :=
  match n with
  | 42 => 43
  | _ => 99999999
def main : Nat := intUsage 42 + intUsage 5
"""

    def test_literal_match_uses_runtime_equality(self):
        module = generate_lp_module(insert_rc(Frontend.to_pure(self.INT_USAGE)))
        int_usage = module.lookup_symbol("intUsage")
        callees = [
            op.callee
            for op in int_usage.walk()
            if op.name == "func.call"
        ]
        assert "lean_nat_dec_eq" in callees
        assert "lp.switch" in op_names(int_usage)

    def test_program_result(self):
        assert run_reference(self.INT_USAGE) == 43 + 99999999
        assert run_mlir(self.INT_USAGE).value == 43 + 99999999


class TestFigure5And8:
    EVAL = """
def eval (x : Nat) (y : Nat) (z : Nat) : Nat :=
  match x, y, z with
  | 0, 2, _ => 40
  | 0, _, 2 => 50
  | _, _, _ => 60
def main : Nat := eval 0 2 1 + eval 0 1 2 + eval 1 1 1
"""

    def test_joinpoints_deduplicate_default_arm(self):
        module = generate_lp_module(insert_rc(Frontend.to_pure(self.EVAL)))
        eval_fn = module.lookup_symbol("eval")
        names = op_names(eval_fn)
        assert names.count("lp.joinpoint") >= 1
        assert names.count("lp.jump") >= 2
        # The 60-returning right-hand side exists exactly once (Figure 5 C).
        sixties = [
            op for op in eval_fn.walk()
            if isinstance(op, lp.IntOp) and op.value == 60
        ]
        assert len(sixties) == 1

    def test_lowering_to_rgn_shapes(self):
        module = generate_lp_module(insert_rc(Frontend.to_pure(self.EVAL)))
        lower_lp_to_rgn(module)
        verify(module)
        eval_fn = module.lookup_symbol("eval")
        names = op_names(eval_fn)
        # Figure 8: switches become select/rgn.switch over rgn.val + rgn.run;
        # join points become rgn.val run from several places.
        assert "rgn.val" in names
        assert "rgn.run" in names
        assert "lp.joinpoint" not in names and "lp.switch" not in names

    def test_results_unchanged(self):
        expected = run_reference(self.EVAL)
        assert run_mlir(self.EVAL).value == expected
        assert run_mlir(self.EVAL, PipelineOptions.variant("rgn")).value == expected


class TestFigure6And7:
    def test_singleton_and_length(self):
        src = """
inductive List where
| nil
| cons (i : Nat) (l : List)
def singleton (n : Nat) : List := List.cons n List.nil
def length (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons _ l => 1 + length l
def main : Nat := length (singleton 42)
"""
        module = generate_lp_module(insert_rc(Frontend.to_pure(src)))
        singleton = module.lookup_symbol("singleton")
        names = op_names(singleton)
        assert names.count("lp.construct") >= 1
        length = module.lookup_symbol("length")
        lnames = op_names(length)
        assert "lp.getlabel" in lnames and "lp.project" in lnames
        assert run_mlir(src).value == 1

    def test_closures_pap_and_papextend(self):
        src = """
def k (x : Nat) (y : Nat) : Nat := x
def k10 : Nat -> Nat := k 10
def ap42 (f : Nat -> Nat -> Nat) : Nat -> Nat := f 42
def k42 : Nat -> Nat := ap42 k
def main : Nat := k10 1 + k42 2
"""
        module = generate_lp_module(insert_rc(Frontend.to_pure(src)))
        names = op_names(module)
        assert "lp.pap" in names and "lp.papextend" in names
        assert run_mlir(src).value == 10 + 42
        assert run_reference(src) == 52


class TestPassStatisticsReporting:
    def test_rgn_pipeline_reports_statistics(self):
        artifacts = MlirCompiler().compile(TestFigure5And8.EVAL)
        assert "region-gvn" in artifacts.pass_statistics
        # Dead region elimination now rides inside the unified
        # canonicalisation drain (one worklist seed per function).
        assert "canonicalize" in artifacts.pass_statistics
        assert artifacts.pass_statistics["canonicalize"]["match-attempts"] > 0
