"""Tests for the worklist rewrite engine, its notification hooks and the
pass-manager statistics fixes."""

import pytest

from repro.dialects import arith, lp, rgn
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.ir import Builder, FunctionType, InsertionPoint, i64
from repro.ir.core import Operation
from repro.rewrite import (
    NonConvergenceError,
    PassManager,
    PatternRewriter,
    PatternSet,
    RewritePattern,
    Worklist,
    apply_patterns_greedily,
)
from repro.rewrite.pass_manager import Pass
from repro.telemetry import telemetry_session
from repro.transforms.constant_fold import constant_fold_patterns


def new_func(module, name="f", inputs=(i64,), results=(i64,)):
    func = FuncOp(name, FunctionType(list(inputs), list(results)))
    module.append(func)
    return func, Builder(InsertionPoint.at_end(func.entry_block))


def fold_chain_func(depth=6):
    """((1 + 2) + 3) + ... — a constant-fold cascade."""
    module = ModuleOp()
    func, builder = new_func(module)
    acc = builder.create(arith.ConstantOp, 1)
    for i in range(2, depth + 2):
        rhs = builder.create(arith.ConstantOp, i)
        acc = builder.create(arith.AddIOp, acc.result(), rhs.result())
    builder.create(ReturnOp, [acc.result()])
    return module, func


class TestEraseTracking:
    def test_erase_sets_flag(self):
        module = ModuleOp()
        func, builder = new_func(module)
        c = builder.create(arith.ConstantOp, 1)
        assert c.attached and not c.erased
        c.erase()
        assert c.erased and not c.attached

    def test_erasing_parent_marks_nested_ops(self):
        module = ModuleOp()
        func, builder = new_func(module, inputs=(), results=())
        val = builder.create(rgn.ValOp)
        inner = Builder(InsertionPoint.at_end(val.body_block))
        payload = inner.create(lp.IntOp, 7)
        val.erase()
        assert val.erased
        assert payload.erased and not payload.attached

    def test_detach_clears_attached_without_erasing(self):
        module = ModuleOp()
        func, builder = new_func(module)
        c = builder.create(arith.ConstantOp, 1)
        c.detach()
        assert not c.attached and not c.erased

    def test_walk_postorder_yields_children_first(self):
        module = ModuleOp()
        func, builder = new_func(module, inputs=(), results=())
        val = builder.create(rgn.ValOp)
        inner = Builder(InsertionPoint.at_end(val.body_block))
        payload = inner.create(lp.IntOp, 7)
        order = list(val.walk_postorder())
        assert order.index(payload) < order.index(val)


class TestWorklist:
    def test_membership_deduplicates_pushes(self):
        module = ModuleOp()
        func, builder = new_func(module)
        c = builder.create(arith.ConstantOp, 1)
        worklist = Worklist()
        assert worklist.push(c)
        assert not worklist.push(c)
        assert len(worklist) == 1
        assert worklist.pop() is c
        assert worklist.push(c)  # re-queueable after popping

    def test_duplicate_touches_matched_once(self):
        """Satellite regression: a pattern reporting the same op many times
        must not cause repeated re-matching within one driver run."""

        class NoisyFold(RewritePattern):
            op_name = arith.AddIOp.OP_NAME
            benefit = 2

            def match_and_rewrite(self, op, rewriter):
                lhs = op.operands[0].owner_op()
                rhs = op.operands[1].owner_op()
                if not isinstance(lhs, arith.ConstantOp):
                    return False
                if not isinstance(rhs, arith.ConstantOp):
                    return False
                folded = rewriter.create(
                    arith.ConstantOp, lhs.value + rhs.value, op.results[0].type
                )
                # Report the replacement op many times over.
                for _ in range(10):
                    rewriter.notify_changed(folded)
                rewriter.replace_op(op, folded.results)
                return True

        module, func = fold_chain_func(depth=5)
        result = apply_patterns_greedily(func, [NoisyFold()])
        assert result.converged and result.applications == 5
        assert result.requeues_deduped >= 5 * 9
        # ~one attempt per live op plus a few requeues — nowhere near the
        # 10-notifications-per-application blow-up.
        assert result.match_attempts < 60

    def test_worklist_and_rescan_reach_same_ir(self):
        results = {}
        for engine in ("worklist", "rescan"):
            module, func = fold_chain_func(depth=8)
            result = apply_patterns_greedily(
                func, constant_fold_patterns(), engine=engine
            )
            assert result.converged
            results[engine] = (str(module), result.applications)
        assert results["worklist"][0] == results["rescan"][0]
        assert results["worklist"][1] == results["rescan"][1]

    def test_unknown_engine_rejected(self):
        module, func = fold_chain_func(depth=1)
        with pytest.raises(ValueError, match="unknown rewrite engine"):
            apply_patterns_greedily(func, [], engine="magic")


class TestNotifications:
    def test_replace_op_requeues_users_of_results(self):
        """Folding a producer must requeue its consumer even when the
        consumer was already processed (the consumer is re-enabled)."""
        module, func = fold_chain_func(depth=4)
        result = apply_patterns_greedily(func, constant_fold_patterns())
        constants = [
            op for op in func.walk() if isinstance(op, arith.ConstantOp)
        ]
        adds = [op for op in func.walk() if isinstance(op, arith.AddIOp)]
        assert not adds  # the whole chain folded in one drain
        assert result.iterations == 1

    def test_erase_notifies_single_use_transition(self):
        """Erasing one of two run sites makes the region inlinable; the
        worklist engine must discover this within the same drain."""

        class EraseSecondRun(RewritePattern):
            op_name = rgn.RunOp.OP_NAME
            benefit = 5

            def __init__(self):
                self.fired = False

            def match_and_rewrite(self, op, rewriter):
                if self.fired:
                    return False
                self.fired = True
                rewriter.erase_op(op)
                return True

        from repro.transforms.case_elimination import InlineRunOfKnownRegion

        module = ModuleOp()
        func, builder = new_func(module, inputs=(), results=())
        val = builder.create(rgn.ValOp)
        inner = Builder(InsertionPoint.at_end(val.body_block))
        inner.create(lp.IntOp, 1)
        # Two run sites: the inline pattern is blocked until one is erased.
        builder.create(rgn.RunOp, val.result())
        builder.create(rgn.RunOp, val.result())
        result = apply_patterns_greedily(
            func, [EraseSecondRun(), InlineRunOfKnownRegion()]
        )
        assert result.converged
        names = [op.name for op in func.walk() if op is not func]
        assert "rgn.run" not in names  # remaining run was inlined in-drain
        assert "rgn.val" not in names

    def test_nested_ops_in_cloned_subtrees_are_requeued(self):
        """Inlining clones a subtree whose *nested* ops become matchable
        after operand substitution — the worklist must queue the whole
        cloned subtree, not just its top-level ops."""
        from repro.ir import i1
        from repro.transforms.case_elimination import case_elimination_patterns

        def build():
            module = ModuleOp()
            func, builder = new_func(module, inputs=(), results=())
            a = builder.create(arith.ConstantOp, 10)
            b = builder.create(arith.ConstantOp, 20)
            outer = builder.insert(rgn.ValOp(arg_types=[i1]))
            cond = outer.body_block.arguments[0]
            inner_builder = Builder(InsertionPoint.at_end(outer.body_block))
            inner = inner_builder.create(rgn.ValOp)
            deep = Builder(InsertionPoint.at_end(inner.body_block))
            deep.create(arith.SelectOp, cond, a.result(), b.result())
            inner_builder.create(rgn.RunOp, inner.result())
            flag = builder.create(arith.ConstantOp, 1, i1)
            builder.create(rgn.RunOp, outer.result(), [flag.result()])
            return module, func

        finals = {}
        for engine in ("worklist", "rescan"):
            module, func = build()
            result = apply_patterns_greedily(
                func, case_elimination_patterns(), engine=engine
            )
            assert result.converged
            finals[engine] = str(module)
            names = [op.name for op in func.walk()]
            assert "arith.select" not in names, engine
        assert finals["worklist"] == finals["rescan"]

    def test_erased_worklist_entries_are_skipped(self):
        module, func = fold_chain_func(depth=3)
        result = apply_patterns_greedily(func, constant_fold_patterns())
        assert result.converged
        # Dead intermediate constants remain (no DCE pattern here), but no
        # erased op was ever re-matched: every attempt targets a live op.
        live = sum(1 for op in func.walk() if op is not func)
        # 4 seed constants + 3 folded constants + return; the 3 adds erased.
        assert live == 8
        assert not any(op.name == arith.AddIOp.OP_NAME for op in func.walk())


class TestConvergence:
    class Diverging(RewritePattern):
        """Always applies: flips an attribute back and forth forever."""

        op_name = arith.ConstantOp.OP_NAME

        def match_and_rewrite(self, op, rewriter):
            rewriter.notify_changed(op)
            return True

    def test_nonconvergence_returns_flag_when_not_strict(self):
        module, func = fold_chain_func(depth=1)
        result = apply_patterns_greedily(
            func, [self.Diverging()], max_rewrites=25
        )
        assert not result.converged
        assert result.applications == 25

    def test_nonconvergence_raises_under_strict(self):
        module, func = fold_chain_func(depth=1)
        with pytest.raises(NonConvergenceError, match="did not converge"):
            apply_patterns_greedily(
                func, [self.Diverging()], max_rewrites=25, strict=True
            )

    def test_rescan_nonconvergence_raises_under_strict(self):
        module, func = fold_chain_func(depth=1)
        with pytest.raises(NonConvergenceError):
            apply_patterns_greedily(
                func,
                [self.Diverging()],
                engine="rescan",
                max_iterations=3,
                strict=True,
            )

    def test_pass_manager_threads_strictness(self):
        from repro.transforms.constant_fold import ConstantFoldPass

        module, func = fold_chain_func(depth=2)
        manager = PassManager([ConstantFoldPass()], verify_each=False)
        manager.run(module)
        assert manager.passes[0].strict_convergence is False
        manager = PassManager([ConstantFoldPass()], verify_each=True)
        manager.run(module)
        assert manager.passes[0].strict_convergence is True


class TestPatternSet:
    def test_benefit_orders_candidates(self):
        class Low(RewritePattern):
            benefit = 1

        class High(RewritePattern):
            benefit = 9

        class Named(RewritePattern):
            op_name = arith.ConstantOp.OP_NAME
            benefit = 2

        low, high, named = Low(), High(), Named()
        patterns = PatternSet([low, named, high])
        module = ModuleOp()
        func, builder = new_func(module)
        c = builder.create(arith.ConstantOp, 1)
        assert list(patterns.candidates(c)) == [named, high, low]
        add = builder.create(arith.AddIOp, c.result(), c.result())
        assert list(patterns.candidates(add)) == [high, low]


class TestOperandArityPrefilter:
    """The operand-arity prefilter on the pattern index (drain seeding)."""

    class ExactlyTwo(RewritePattern):
        op_name = arith.ConstantOp.OP_NAME
        num_operands = 2

        def match_and_rewrite(self, op, rewriter):  # pragma: no cover
            raise AssertionError("prefiltered pattern must never be tried")

    class AtLeastOneGeneric(RewritePattern):
        min_num_operands = 1

        def match_and_rewrite(self, op, rewriter):
            return False

    def test_exact_arity_mismatch_is_skipped_and_counted(self):
        from repro.rewrite.driver import GreedyRewriteResult

        patterns = PatternSet([self.ExactlyTwo()])
        module = ModuleOp()
        func, builder = new_func(module)
        constant = builder.create(arith.ConstantOp, 1)  # zero operands
        result = GreedyRewriteResult()
        assert list(patterns.candidates(constant, result)) == []
        assert result.prefilter_skips == 1

    def test_min_arity_applies_to_generic_patterns(self):
        from repro.rewrite.driver import GreedyRewriteResult

        generic = self.AtLeastOneGeneric()
        patterns = PatternSet([generic])
        module = ModuleOp()
        func, builder = new_func(module)
        constant = builder.create(arith.ConstantOp, 1)
        add = builder.create(arith.AddIOp, constant.result(), constant.result())
        result = GreedyRewriteResult()
        assert list(patterns.candidates(constant, result)) == []
        assert list(patterns.candidates(add, result)) == [generic]
        assert result.prefilter_skips == 1

    def test_driver_never_attempts_prefiltered_patterns(self):
        # ExactlyTwo raises if matched; driving it over a module of
        # zero-operand constants must be a no-op with counted skips.
        module, func = fold_chain_func(depth=2)
        result = apply_patterns_greedily(func, [self.ExactlyTwo()])
        assert result.match_attempts == 0
        assert result.prefilter_skips == 3  # one per constant op
        assert result.converged

    def test_canonicalization_drain_reports_skips_in_statistics(self):
        from repro.rewrite.driver import PatternRewritePass

        class TwoOnlyPass(PatternRewritePass):
            name = "two-only"

            def patterns(self):
                return [TestOperandArityPrefilter.ExactlyTwo()]

        module, _ = fold_chain_func(depth=2)
        pass_ = TwoOnlyPass()
        manager = PassManager([pass_], verify_each=False)
        manager.run(module)
        assert pass_.statistics.get("prefilter-skips") == 3


class CountingPass(Pass):
    name = "counting"

    def run(self, module: Operation) -> None:
        self.statistics.bump("runs")
        self.statistics.bump("work", 10)


class TestPassManagerStatistics:
    def test_same_instance_twice_accumulates(self):
        """Regression: statistics once kept only the last run's counters."""
        module = ModuleOp()
        pass_ = CountingPass()
        manager = PassManager([pass_, pass_], verify_each=False)
        manager.run(module)
        assert manager.statistics["counting"].get("runs") == 2
        assert manager.statistics["counting"].get("work") == 20

    def test_two_instances_sharing_a_name_merge(self):
        module = ModuleOp()
        manager = PassManager([CountingPass(), CountingPass()], verify_each=False)
        manager.run(module)
        assert manager.statistics["counting"].get("runs") == 2
        assert manager.total_rewrites() == 22

    def test_repeated_run_accumulates_statistics_and_spans(self):
        module = ModuleOp()
        pass_ = CountingPass()
        manager = PassManager([pass_], verify_each=False)
        with telemetry_session() as session:
            manager.run(module)
            manager.run(module)
        assert manager.statistics["counting"].get("runs") == 2
        spans = session.tracer.find("pass:counting")
        assert [span.args for span in spans] == [{"runs": 1, "work": 10}] * 2

    def test_statistics_list_each_pass_once(self):
        module = ModuleOp()
        pass_ = CountingPass()
        manager = PassManager([pass_, pass_], verify_each=False)
        manager.run(module)
        assert list(manager.statistics) == ["counting"]
        assert manager.statistics["counting"].counters == {"runs": 2, "work": 20}

    def test_pass_spans_carry_per_run_delta(self):
        module = ModuleOp()
        pass_ = CountingPass()
        manager = PassManager([pass_, pass_], verify_each=False)
        with telemetry_session() as session:
            manager.run(module)
        spans = session.tracer.find("pass:counting")
        # Each run's span carries its own delta (runs=1), not the total.
        assert len(spans) == 2
        assert all(span.args["runs"] == 1 for span in spans)
        assert "runs=1" in session.tracer.report()
