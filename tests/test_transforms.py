"""Tests for the SSA and region optimisation passes (§IV-B)."""

import pytest

from repro.dialects import arith, lp, rgn
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import CallOp, FuncOp, ReturnOp
from repro.ir import Builder, FunctionType, InsertionPoint, box, i1, i64, verify
from repro.rewrite import PassManager, apply_patterns_greedily
from repro.transforms import (
    CanonicalizePass,
    CSEPass,
    DeadCodeEliminationPass,
    RegionGVNPass,
    case_elimination_patterns,
    common_branch_patterns,
    constant_fold_patterns,
    dead_region_patterns,
    region_value_number,
)


def new_func(module, name, inputs, results):
    func = FuncOp(name, FunctionType(inputs, results))
    module.append(func)
    return func, Builder(InsertionPoint.at_end(func.entry_block))


def make_region_returning_int(builder, value):
    """Create ``rgn.val { lp.return (lp.int value) }`` and return the op."""
    val = builder.create(rgn.ValOp)
    inner = Builder(InsertionPoint.at_end(val.body_block))
    c = inner.create(lp.IntOp, value)
    inner.create(lp.ReturnOp, c.result())
    return val


def ops_by_name(func):
    return [op.name for op in func.walk() if op is not func]


class TestDCE:
    def test_removes_dead_pure_ops(self):
        module = ModuleOp()
        func, builder = new_func(module, "f", [i64], [i64])
        builder.create(arith.ConstantOp, 1)
        builder.create(arith.ConstantOp, 2)
        builder.create(ReturnOp, [func.arguments[0]])
        DeadCodeEliminationPass().run(module)
        assert ops_by_name(func) == ["func.return"]

    def test_keeps_impure_ops(self):
        module = ModuleOp()
        func, builder = new_func(module, "f", [box], [box])
        builder.create(CallOp, "effect", [func.arguments[0]], [box])
        builder.create(lp.ReturnOp, func.arguments[0])
        DeadCodeEliminationPass().run(module)
        assert "func.call" in ops_by_name(func)

    def test_removes_transitively_dead_chain(self):
        module = ModuleOp()
        func, builder = new_func(module, "f", [i64], [i64])
        a = builder.create(arith.ConstantOp, 1)
        b = builder.create(arith.CmpIOp, "eq", a.result(), a.result())
        builder.create(arith.CmpIOp, "eq", b.result(), b.result())
        builder.create(ReturnOp, [func.arguments[0]])
        DeadCodeEliminationPass().run(module)
        assert ops_by_name(func) == ["func.return"]

    def test_dead_region_value_removed(self):
        """Figure 1 A: dead expression elimination = DCE on region values."""
        module = ModuleOp()
        func, builder = new_func(module, "f", [box], [box])
        make_region_returning_int(builder, 99)  # dead let-bound expression
        builder.create(lp.ReturnOp, func.arguments[0])
        pass_ = CanonicalizePass(dead_region_patterns())
        pass_.run(module)
        assert "rgn.val" not in ops_by_name(func)
        assert pass_.statistics.get("EraseDeadRegionValue") == 1

    def test_dead_region_pass_ignores_other_ops(self):
        module = ModuleOp()
        func, builder = new_func(module, "f", [i64], [i64])
        builder.create(arith.ConstantOp, 1)
        builder.create(ReturnOp, [func.arguments[0]])
        CanonicalizePass(dead_region_patterns()).run(module)
        assert "arith.constant" in ops_by_name(func)


class TestCSE:
    def test_merges_identical_pure_ops(self):
        module = ModuleOp()
        func, builder = new_func(module, "f", [i64], [i64])
        a = builder.create(arith.ConstantOp, 5)
        b = builder.create(arith.ConstantOp, 5)
        total = builder.create(arith.CmpIOp, "eq", a.result(), b.result())
        builder.create(ReturnOp, [total.result()])
        CSEPass().run(module)
        DeadCodeEliminationPass().run(module)
        constants = [op for op in func.walk() if isinstance(op, arith.ConstantOp)]
        assert len(constants) == 1

    def test_does_not_merge_allocating_ops(self):
        module = ModuleOp()
        func, builder = new_func(module, "f", [box], [box])
        p1 = builder.create(lp.PapOp, "g", [func.arguments[0]])
        p2 = builder.create(lp.PapOp, "g", [func.arguments[0]])
        merged = builder.create(lp.PapExtendOp, p1.result(), [p2.result()])
        builder.create(lp.ReturnOp, merged.result())
        CSEPass().run(module)
        paps = [op for op in func.walk() if isinstance(op, lp.PapOp)]
        assert len(paps) == 2

    def test_different_attributes_not_merged(self):
        module = ModuleOp()
        func, builder = new_func(module, "f", [i64], [i64])
        a = builder.create(arith.ConstantOp, 1)
        b = builder.create(arith.ConstantOp, 2)
        s = builder.create(arith.CmpIOp, "eq", a.result(), b.result())
        builder.create(ReturnOp, [s.result()])
        CSEPass().run(module)
        constants = [op for op in func.walk() if isinstance(op, arith.ConstantOp)]
        assert len(constants) == 2


class TestConstantFolding:
    @pytest.mark.parametrize("rhs,expected", [(2, 1), (3, 0)])
    def test_folds_comparison(self, rhs, expected):
        module = ModuleOp()
        func, builder = new_func(module, "f", [], [i1])
        a = builder.create(arith.ConstantOp, 2)
        b = builder.create(arith.ConstantOp, rhs)
        cmp = builder.create(arith.CmpIOp, "eq", a.result(), b.result())
        builder.create(ReturnOp, [cmp.result()])
        CanonicalizePass(constant_fold_patterns()).run(module)
        DeadCodeEliminationPass().run(module)
        assert not any(op.name == "arith.cmpi" for op in func.walk())
        constants = [op for op in func.walk() if isinstance(op, arith.ConstantOp)]
        assert [(c.value, c.result().type) for c in constants] == [(expected, i1)]

    def test_does_not_fold_a_non_constant_operand(self):
        module = ModuleOp()
        func, builder = new_func(module, "f", [i64], [i1])
        a = builder.create(arith.ConstantOp, 2)
        cmp = builder.create(arith.CmpIOp, "eq", func.arguments[0], a.result())
        builder.create(ReturnOp, [cmp.result()])
        CanonicalizePass(constant_fold_patterns()).run(module)
        assert any(op.name == "arith.cmpi" for op in func.walk())


class TestRegionGVN:
    def test_fingerprint_equal_for_identical_regions(self):
        builder_block = ModuleOp()
        func, builder = new_func(builder_block, "f", [i1], [box])
        a = make_region_returning_int(builder, 7)
        b = make_region_returning_int(builder, 7)
        c = make_region_returning_int(builder, 8)
        builder.create(lp.UnreachableOp)
        fa = region_value_number(a.body_region)
        fb = region_value_number(b.body_region)
        fc = region_value_number(c.body_region)
        assert fa == fb
        assert fa != fc

    def test_fingerprint_distinguishes_outer_values(self):
        from repro.transforms.region_gvn import ValueNumbering

        module = ModuleOp()
        func, builder = new_func(module, "f", [box, box], [box])
        v1 = builder.create(rgn.ValOp)
        Builder(InsertionPoint.at_end(v1.body_block)).create(
            lp.ReturnOp, func.arguments[0]
        )
        v2 = builder.create(rgn.ValOp)
        Builder(InsertionPoint.at_end(v2.body_block)).create(
            lp.ReturnOp, func.arguments[1]
        )
        builder.create(lp.UnreachableOp)
        # Fingerprints are only comparable when they share one value
        # numbering (as the pass does).
        numbering = ValueNumbering()
        assert region_value_number(v1.body_region, numbering) != region_value_number(
            v2.body_region, numbering
        )

    def test_gvn_merges_identical_regions(self):
        """§IV-B.2: case b of True -> 7 | False -> 7 collapses to return 7."""
        module = ModuleOp()
        func, builder = new_func(module, "f", [i1], [box])
        a = make_region_returning_int(builder, 7)
        b = make_region_returning_int(builder, 7)
        sel = builder.create(arith.SelectOp, func.arguments[0], a.result(), b.result())
        builder.create(rgn.RunOp, sel.result())
        pm = PassManager(
            [
                RegionGVNPass(),
                CanonicalizePass(common_branch_patterns()),
                CanonicalizePass(case_elimination_patterns()),
                DeadCodeEliminationPass(),
            ]
        )
        pm.run(module)
        names = ops_by_name(func)
        assert names == ["lp.int", "lp.return"]
        assert pm.statistics["region-gvn"].get("regions-merged") == 1

    def test_gvn_does_not_merge_different_regions(self):
        module = ModuleOp()
        func, builder = new_func(module, "f", [i1], [box])
        a = make_region_returning_int(builder, 3)
        b = make_region_returning_int(builder, 5)
        sel = builder.create(arith.SelectOp, func.arguments[0], a.result(), b.result())
        builder.create(rgn.RunOp, sel.result())
        RegionGVNPass().run(module)
        vals = [op for op in func.walk() if isinstance(op, rgn.ValOp)]
        assert len(vals) == 2


class TestCaseElimination:
    def test_select_of_constant_true(self):
        """Figure 1 B: case of a known value takes the matching branch."""
        module = ModuleOp()
        func, builder = new_func(module, "f", [], [box])
        a = make_region_returning_int(builder, 3)
        b = make_region_returning_int(builder, 5)
        t = builder.create(arith.ConstantOp, 1, i1)
        sel = builder.create(arith.SelectOp, t.result(), a.result(), b.result())
        builder.create(rgn.RunOp, sel.result())
        PassManager(
            [CanonicalizePass(case_elimination_patterns()), DeadCodeEliminationPass()]
        ).run(module)
        names = ops_by_name(func)
        assert names == ["lp.int", "lp.return"]
        only_int = [op for op in func.walk() if isinstance(op, lp.IntOp)]
        assert only_int[0].value == 3

    def test_rgn_switch_of_constant(self):
        module = ModuleOp()
        func, builder = new_func(module, "f", [], [box])
        regions = [make_region_returning_int(builder, v) for v in (10, 20, 30)]
        flag = builder.create(arith.ConstantOp, 1, i64)
        switch = builder.create(
            rgn.SwitchOp,
            flag.result(),
            regions[2].result(),
            [0, 1],
            [regions[0].result(), regions[1].result()],
        )
        builder.create(rgn.RunOp, switch.result())
        PassManager(
            [CanonicalizePass(case_elimination_patterns()), DeadCodeEliminationPass()]
        ).run(module)
        ints = [op.value for op in func.walk() if isinstance(op, lp.IntOp)]
        assert ints == [20]

    def test_run_of_multi_use_region_not_inlined(self):
        module = ModuleOp()
        func, builder = new_func(module, "f", [i1], [box])
        shared = make_region_returning_int(builder, 7)
        other = make_region_returning_int(builder, 9)
        sel = builder.create(
            arith.SelectOp, func.arguments[0], shared.result(), other.result()
        )
        builder.create(rgn.RunOp, shared.result())
        # The region has two uses (select + run): the run must not inline it.
        CanonicalizePass(case_elimination_patterns()).run(module)
        assert any(isinstance(op, rgn.RunOp) for op in func.walk())


class TestCommonBranchElimination:
    def test_select_same_operands(self):
        module = ModuleOp()
        func, builder = new_func(module, "f", [i1], [box])
        shared = make_region_returning_int(builder, 7)
        sel = builder.create(
            arith.SelectOp, func.arguments[0], shared.result(), shared.result()
        )
        builder.create(rgn.RunOp, sel.result())
        CanonicalizePass(common_branch_patterns()).run(module)
        selects = [op for op in func.walk() if isinstance(op, arith.SelectOp)]
        assert not selects

    def test_switch_same_operands(self):
        module = ModuleOp()
        func, builder = new_func(module, "f", [i64], [box])
        shared = make_region_returning_int(builder, 7)
        switch = builder.create(
            rgn.SwitchOp,
            func.arguments[0],
            shared.result(),
            [0, 1],
            [shared.result(), shared.result()],
        )
        builder.create(rgn.RunOp, switch.result())
        CanonicalizePass(common_branch_patterns()).run(module)
        assert not any(isinstance(op, rgn.SwitchOp) for op in func.walk())


class TestCanonicalizeAndInline:
    def test_canonicalize_combines_patterns(self):
        module = ModuleOp()
        func, builder = new_func(module, "f", [], [box])
        a = make_region_returning_int(builder, 7)
        b = make_region_returning_int(builder, 7)
        lhs = builder.create(arith.ConstantOp, 2)
        rhs = builder.create(arith.ConstantOp, 3)
        cmp = builder.create(arith.CmpIOp, "eq", lhs.result(), rhs.result())
        sel = builder.create(arith.SelectOp, cmp.result(), a.result(), b.result())
        builder.create(rgn.RunOp, sel.result())
        PassManager([CanonicalizePass(), DeadCodeEliminationPass()]).run(module)
        names = ops_by_name(func)
        assert names == ["lp.int", "lp.return"]

    # Region inlining (``InlineRunOfKnownRegion`` in the canonicalize drain)
    # is the inlining compiled programs get: the body of a single-use
    # ``rgn.val`` replaces the ``rgn.run`` that executes it.

    def _identity_callee(self, module):
        callee, cbuilder = new_func(module, "g", [box], [box])
        cbuilder.create(ReturnOp, [callee.arguments[0]])

    def _run_region_calling_g(self, module, musttail=False):
        self._identity_callee(module)
        func, builder = new_func(module, "f", [box], [box])
        val = builder.create(rgn.ValOp, [box])
        inner = Builder(InsertionPoint.at_end(val.body_block))
        call = inner.create(
            CallOp, "g", [val.body_block.arguments[0]], [box], musttail=musttail
        )
        inner.create(lp.ReturnOp, call.result())
        builder.create(rgn.RunOp, val.result(), [func.arguments[0]])
        return func

    def test_run_of_single_use_region_inlines_its_body(self):
        module = ModuleOp()
        func = self._run_region_calling_g(module)
        CanonicalizePass(case_elimination_patterns()).run(module)
        assert ops_by_name(func) == ["func.call", "lp.return"]
        (call,) = [op for op in func.walk() if isinstance(op, CallOp)]
        # The run argument replaced the region's block argument.
        assert call.operands == (func.arguments[0],)
        verify(module)

    def test_inlined_tail_call_keeps_its_musttail_mark(self):
        module = ModuleOp()
        func = self._run_region_calling_g(module, musttail=True)
        CanonicalizePass(case_elimination_patterns()).run(module)
        (call,) = [op for op in func.walk() if isinstance(op, CallOp)]
        assert call.parent is func.entry_block
        assert call.is_musttail and call.in_tail_position
        verify(module)

    def test_run_with_mismatched_arity_not_inlined(self):
        module = ModuleOp()
        func, builder = new_func(module, "f", [], [box])
        val = builder.create(rgn.ValOp, [box])
        inner = Builder(InsertionPoint.at_end(val.body_block))
        inner.create(lp.ReturnOp, val.body_block.arguments[0])
        builder.create(rgn.RunOp, val.result())
        CanonicalizePass(case_elimination_patterns()).run(module)
        assert [op.name for op in func.entry_block] == ["rgn.val", "rgn.run"]


class TestGreedyDriverAndPassManager:
    def test_driver_reaches_fixpoint(self):
        module = ModuleOp()
        func, builder = new_func(module, "f", [], [i1])
        value = builder.create(arith.ConstantOp, 1, i1)
        for _ in range(5):
            one = builder.create(arith.ConstantOp, 1, i1)
            value = builder.create(arith.CmpIOp, "eq", value.result(), one.result())
        builder.create(ReturnOp, [value.result()])
        result = apply_patterns_greedily(func, constant_fold_patterns())
        assert result.converged
        assert result.applications >= 5

    def test_pass_manager_statistics_and_verify(self):
        module = ModuleOp()
        func, builder = new_func(module, "f", [i64], [i64])
        builder.create(arith.ConstantOp, 1)
        builder.create(ReturnOp, [func.arguments[0]])
        pm = PassManager([DeadCodeEliminationPass()])
        pm.run(module)
        assert pm.statistics["dce"].get("ops-erased") == 1
        assert pm.describe() == "dce"
