"""Case elimination (Figure 1 B / §IV-B.1 example).

A case statement whose scrutinee is a known constant can be replaced by the
selected branch.  In the rgn encoding, a case statement is a ``select`` /
``rgn.switch`` over region values followed by ``rgn.run``; the optimisation
decomposes into ordinary SSA rewrites:

* ``lp.getlabel`` of a directly constructed value (``lp.construct`` /
  ``lp.reuse``) folds to the constructor's tag constant — the
  *case-of-known-constructor* entry point that turns a match on a freshly
  built value into the constant dispatch the following patterns consume,
* ``arith.select`` with a constant condition folds to one of its operands,
* ``rgn.switch`` with a constant flag folds to the matching case region,
* ``rgn.run`` of a single-use, directly-known ``rgn.val`` is replaced by the
  region body itself (the final step D in the paper's illustration).
"""

from __future__ import annotations

from typing import List

from ..dialects import arith, lp, rgn
from ..ir.core import IRMapping, Operation
from ..rewrite.pattern import PatternRewriter, RewritePattern


def _constant_value(value) -> "int | None":
    op = value.owner_op()
    if isinstance(op, arith.ConstantOp):
        return op.value
    return None


class FoldGetLabelOfKnownConstructor(RewritePattern):
    """``lp.getlabel`` of a direct ``lp.construct``/``lp.reuse`` → the tag.

    Case-of-known-constructor: a value built and immediately scrutinised in
    the same function (common after join-point inlining and the λrc → lp
    lowering of nested matches) has a statically known tag, so the label read
    folds to an ``i8`` constant.  The constant then feeds the select /
    ``rgn.switch`` folds above, which is what moves real programs onto the
    worklist engine's notification-driven path.
    """

    op_name = lp.GetLabelOp.OP_NAME
    num_operands = 1
    benefit = 2

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        producer = op.operands[0].owner_op()
        if isinstance(producer, (lp.ConstructOp, lp.ReuseOp)):
            tag = producer.tag
        else:
            return False
        constant = rewriter.create(arith.ConstantOp, tag, op.results[0].type)
        rewriter.replace_op(op, constant.results)
        return True


class FoldSelectOfConstant(RewritePattern):
    """``select true, %a, %b`` → ``%a`` (and ``false`` → ``%b``)."""

    op_name = arith.SelectOp.OP_NAME
    num_operands = 3
    benefit = 2

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        condition = _constant_value(op.operands[0])
        if condition is None:
            return False
        chosen = op.operands[1] if condition else op.operands[2]
        rewriter.replace_op(op, [chosen])
        return True


class FoldSwitchOfConstant(RewritePattern):
    """``rgn.switch`` on a constant flag → the matching region operand."""

    op_name = rgn.SwitchOp.OP_NAME
    # A rgn.switch carries [flag, default_region, case_regions...].
    min_num_operands = 2
    benefit = 2

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if not isinstance(op, rgn.SwitchOp):
            return False
        flag = _constant_value(op.flag)
        if flag is None:
            return False
        rewriter.replace_op(op, [op.region_for_value(flag)])
        return True


class InlineRunOfKnownRegion(RewritePattern):
    """``rgn.run`` of a directly known, single-use ``rgn.val`` inlines the
    region body at the run site (substituting the run arguments for the
    region's block arguments).

    Multi-use regions are intentionally left alone: keeping them shared is
    exactly the code-size benefit join points provide; the rgn → CFG lowering
    turns the remaining runs into branches to a shared block.
    """

    op_name = rgn.RunOp.OP_NAME
    # A rgn.run carries [region_value, args...].
    min_num_operands = 1

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if not isinstance(op, rgn.RunOp):
            return False
        region_def = op.region_value.owner_op()
        if not isinstance(region_def, rgn.ValOp):
            return False
        if op.region_value.num_uses != 1:
            return False
        body = region_def.body_block
        args = op.args
        if len(body.arguments) != len(args):
            return False
        mapping = IRMapping()
        for block_arg, actual in zip(body.arguments, args):
            mapping.map_value(block_arg, actual)
        insert_block = op.parent
        actuals = set(args)
        for body_op in body:
            cloned = body_op.clone(mapping)
            insert_block.insert_before(cloned, op)
            # The region body was already driven to fixpoint in place, so a
            # clone of it can only *newly* match where the argument
            # substitution changed an op's context: notify the top-level op
            # (it moved into a new block) and every cloned op consuming one
            # of the run arguments, instead of requeueing the whole subtree.
            rewriter.notify_op_modified(cloned)
            if actuals:
                for sub in cloned.walk():
                    if any(operand in actuals for operand in sub.operands):
                        rewriter.notify_op_modified(sub)
        rewriter.erase_op(op)
        # The rgn.val is now unused; let DCE remove it (or remove it eagerly
        # if it became completely unused).
        if not region_def.results_used():
            rewriter.erase_op(region_def)
        return True


def case_elimination_patterns() -> List[RewritePattern]:
    return [
        FoldGetLabelOfKnownConstructor(),
        FoldSelectOfConstant(),
        FoldSwitchOfConstant(),
        InlineRunOfKnownRegion(),
    ]
