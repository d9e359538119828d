"""Constant folding patterns for the arith dialect.

The baseline LEAN backend hand-writes constant folding; in the MLIR-style
pipeline it is just another family of rewrite patterns in the
canonicalize drain (Figure 11).
"""

from __future__ import annotations

from typing import List

from ..dialects import arith
from ..ir.core import Operation
from ..rewrite.pattern import PatternRewriter, RewritePattern


def _constant_value(value) -> "int | None":
    op = value.owner_op()
    if isinstance(op, arith.ConstantOp):
        return op.value
    return None


class FoldBinaryOp(RewritePattern):
    """``addi/subi/muli/divsi/remsi/andi/ori/xori`` of two constants."""

    benefit = 2
    num_operands = 2

    _FOLDABLE = frozenset({
        arith.AddIOp.OP_NAME,
        arith.SubIOp.OP_NAME,
        arith.MulIOp.OP_NAME,
        arith.DivSIOp.OP_NAME,
        arith.RemSIOp.OP_NAME,
        arith.AndIOp.OP_NAME,
        arith.OrIOp.OP_NAME,
        arith.XorIOp.OP_NAME,
    })
    op_names = _FOLDABLE

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if op.name not in self._FOLDABLE or len(op.operands) != 2:
            return False
        lhs = _constant_value(op.operands[0])
        rhs = _constant_value(op.operands[1])
        if lhs is None or rhs is None:
            return False
        if op.name in (arith.DivSIOp.OP_NAME, arith.RemSIOp.OP_NAME) and rhs == 0:
            return False
        folded = arith.evaluate_binary(op.name, lhs, rhs)
        constant = rewriter.create(arith.ConstantOp, folded, op.results[0].type)
        rewriter.replace_op(op, constant.results)
        return True


class FoldAddZero(RewritePattern):
    """``x + 0`` → ``x`` and ``0 + x`` → ``x`` (likewise ``x - 0``, ``x * 1``)."""

    op_names = frozenset({
        arith.AddIOp.OP_NAME,
        arith.SubIOp.OP_NAME,
        arith.MulIOp.OP_NAME,
    })
    num_operands = 2

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if op.name == arith.AddIOp.OP_NAME:
            if _constant_value(op.operands[1]) == 0:
                rewriter.replace_op(op, [op.operands[0]])
                return True
            if _constant_value(op.operands[0]) == 0:
                rewriter.replace_op(op, [op.operands[1]])
                return True
        if op.name == arith.SubIOp.OP_NAME and _constant_value(op.operands[1]) == 0:
            rewriter.replace_op(op, [op.operands[0]])
            return True
        if op.name == arith.MulIOp.OP_NAME:
            if _constant_value(op.operands[1]) == 1:
                rewriter.replace_op(op, [op.operands[0]])
                return True
            if _constant_value(op.operands[0]) == 1:
                rewriter.replace_op(op, [op.operands[1]])
                return True
        return False


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
        from ..ir.types import i1

        constant = rewriter.create(arith.ConstantOp, folded, i1)
        rewriter.replace_op(op, constant.results)
        return True


def constant_fold_patterns() -> List[RewritePattern]:
    """The full set of constant-folding patterns."""
    return [FoldBinaryOp(), FoldAddZero(), FoldCmpI()]
