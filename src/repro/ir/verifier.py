"""Structural and dialect verification of IR.

The verifier enforces the invariants that the rewrite infrastructure and the
lowering passes rely on:

* every operand's defining value dominates its use (SSA dominance, extended
  to nested regions),
* every non-empty block inside an op that requires terminators ends with a
  terminator operation, and terminators appear only in the final position,
* successor counts of terminators refer to blocks of the same region,
* op-specific invariants via :meth:`Operation.verify_`.

Dominance is checked in the same walk, which carries the set of values in
scope: an op sees the values in scope at its parent op, its block's
arguments and the results of the ops before it in its block.  An operand
found there dominates its use.  Only an op with an operand not in scope —
a use before its definition, a value from another block of a multi-block
region, a value from outside ``root`` — goes to the precise
:func:`~repro.ir.dominance.operand_dominance_errors` query, which also
writes the messages.
"""

from __future__ import annotations

from typing import List, Set

from .core import Operation, Value
from .dominance import DominanceAnalysis, operand_dominance_errors
from .traits import IsTerminator, NoTerminatorRequired, SingleBlock


class VerificationError(Exception):
    """Raised when :func:`verify` finds invalid IR."""

    def __init__(self, errors: List[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def collect_errors(root: Operation) -> List[str]:
    """Verify ``root`` and everything nested in it; return error strings.

    One pre-order walk collects both kinds of error; structural and
    op-specific errors come first, dominance errors after them.  An op's
    errors precede those of the ops nested in it: its op-specific error
    first, then its region-shape and successor errors.
    """
    errors: List[str] = []
    dominance_errors: List[str] = []
    dominance = DominanceAnalysis()
    # Values that dominate the op being visited (see the module docstring).
    scope: Set[Value] = set()

    def visit(op: Operation) -> None:
        try:
            op.verify_()
        except Exception as exc:  # noqa: BLE001 - surface as verifier error
            errors.append(f"{op.name}: {exc}")
        if not scope.issuperset(op.operands):
            dominance_errors.extend(operand_dominance_errors(op, dominance))
        if not op.regions and not op.successors:
            return
        # The region-shape errors are found while walking the regions, so
        # they are spliced in ahead of the nested ops' errors afterwards.
        mark = len(errors)
        shape: List[str] = []
        requires_terminator = not op.has_trait(NoTerminatorRequired)
        for region_index, region in enumerate(op.regions):
            if op.has_trait(SingleBlock) and len(region.blocks) > 1:
                shape.append(
                    f"{op.name}: region #{region_index} must have a single "
                    f"block, found {len(region.blocks)}"
                )
            for block in region.blocks:
                if block.is_empty and requires_terminator:
                    shape.append(f"{op.name}: empty block requires a terminator")
                added = list(block.arguments)
                scope.update(added)
                inner = block.first_op
                while inner is not None:
                    next_op = inner.next_op
                    is_terminator = inner.has_trait(IsTerminator)
                    if is_terminator and next_op is not None:
                        shape.append(
                            f"{inner.name}: terminator is not the last "
                            f"operation in its block (inside {op.name})"
                        )
                    if next_op is None and requires_terminator and not is_terminator:
                        shape.append(
                            f"{op.name}: block does not end with a terminator "
                            f"(last op is {inner.name})"
                        )
                    visit(inner)
                    added.extend(inner.results)
                    scope.update(inner.results)
                    inner = next_op
                scope.difference_update(added)
        # Successors must live in the same region as the terminator.
        parent_region = op.parent_region()
        for succ in op.successors:
            if succ.parent is not parent_region:
                shape.append(
                    f"{op.name}: successor block is not in the same region"
                )
        errors[mark:mark] = shape

    visit(root)
    errors.extend(dominance_errors)
    return errors


def verify(root: Operation, *, raise_on_error: bool = True) -> List[str]:
    """Verify ``root``; raise :class:`VerificationError` on failure."""
    errors = collect_errors(root)
    if errors and raise_on_error:
        raise VerificationError(errors)
    return errors
