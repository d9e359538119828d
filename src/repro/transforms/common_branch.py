"""Common branch elimination (Figure 1 C).

``case x of True -> e | False -> e`` computes ``e`` regardless of ``x``.
After region GVN has merged the structurally identical branch regions into a
single ``rgn.val``, the selection operation chooses between identical values
and folds away:

* ``arith.select %c, %a, %a`` → ``%a``
* ``rgn.switch %flag`` whose case and default operands are all the same
  region value → that region value
"""

from __future__ import annotations

from typing import List

from ..dialects import arith, rgn
from ..ir.core import Operation
from ..rewrite.pattern import PatternRewriter, RewritePattern


class FoldSelectSameOperands(RewritePattern):
    """``select %c, %a, %a`` → ``%a`` (works for any type, incl. regions)."""

    op_name = arith.SelectOp.OP_NAME
    num_operands = 3

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if op.operands[1] is not op.operands[2]:
            return False
        rewriter.replace_op(op, [op.operands[1]])
        return True


class FoldSwitchSameOperands(RewritePattern):
    """``rgn.switch`` whose every outcome is the same region → that region."""

    op_name = rgn.SwitchOp.OP_NAME
    # A rgn.switch carries [flag, default_region, case_regions...].
    min_num_operands = 2

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if not isinstance(op, rgn.SwitchOp):
            return False
        outcomes = [op.default_region, *op.case_regions]
        first = outcomes[0]
        if any(o is not first for o in outcomes[1:]):
            return False
        rewriter.replace_op(op, [first])
        return True


def common_branch_patterns() -> List[RewritePattern]:
    return [FoldSelectSameOperands(), FoldSwitchSameOperands()]
