"""Constant folding patterns for the arith dialect.

The baseline LEAN backend hand-writes constant folding; in the MLIR-style
pipeline it is just another family of rewrite patterns in the
canonicalize drain (Figure 11).
"""

from __future__ import annotations

from typing import List

from ..dialects import arith
from ..ir.core import Operation
from ..ir.types import i1
from ..rewrite.pattern import PatternRewriter, RewritePattern


def _constant_value(value) -> "int | None":
    op = value.owner_op()
    if isinstance(op, arith.ConstantOp):
        return op.value
    return None


class FoldCmpI(RewritePattern):
    """``arith.cmpi`` of two constants folds to an ``i1`` constant."""

    op_name = arith.CmpIOp.OP_NAME
    num_operands = 2
    benefit = 2

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        lhs = _constant_value(op.operands[0])
        rhs = _constant_value(op.operands[1])
        if lhs is None or rhs is None:
            return False
        folded = arith.evaluate_cmpi(op.attributes["predicate"].value, lhs, rhs)
        constant = rewriter.create(arith.ConstantOp, folded, i1)
        rewriter.replace_op(op, constant.results)
        return True


def constant_fold_patterns() -> List[RewritePattern]:
    """The full set of constant-folding patterns."""
    return [FoldCmpI()]
