"""Structural and dialect verification of IR.

The verifier enforces the invariants that the rewrite infrastructure and the
lowering passes rely on:

* every operand's defining value dominates its use (SSA dominance, extended
  to nested regions),
* every non-empty block inside an op that requires terminators ends with a
  terminator operation, and terminators appear only in the final position,
* successor counts of terminators refer to blocks of the same region,
* op-specific invariants via :meth:`Operation.verify_`.
"""

from __future__ import annotations

from typing import List

from .core import Operation
from .dominance import DominanceAnalysis, operand_dominance_errors
from .traits import IsTerminator, NoTerminatorRequired, SingleBlock, has_trait


class VerificationError(Exception):
    """Raised when :func:`verify` finds invalid IR."""

    def __init__(self, errors: List[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def collect_errors(root: Operation) -> List[str]:
    """Verify ``root`` and everything nested in it; return error strings.

    One walk collects both kinds of error; structural and op-specific
    errors come first, dominance errors after them.
    """
    errors: List[str] = []
    dominance_errors: List[str] = []
    dominance = DominanceAnalysis()

    for op in root.walk():
        # Op-specific verification.
        try:
            op.verify_()
        except Exception as exc:  # noqa: BLE001 - surface as verifier error
            errors.append(f"{op.name}: {exc}")

        # Structural checks for nested regions.
        requires_terminator = not has_trait(op, NoTerminatorRequired)
        for region_index, region in enumerate(op.regions):
            if has_trait(op, SingleBlock) and len(region.blocks) > 1:
                errors.append(
                    f"{op.name}: region #{region_index} must have a single "
                    f"block, found {len(region.blocks)}"
                )
            for block in region.blocks:
                for inner in block:
                    is_last = inner.next_op is None
                    if inner.has_trait(IsTerminator) and not is_last:
                        errors.append(
                            f"{inner.name}: terminator is not the last "
                            f"operation in its block (inside {op.name})"
                        )
                    if is_last and requires_terminator and not inner.has_trait(
                        IsTerminator
                    ):
                        errors.append(
                            f"{op.name}: block does not end with a terminator "
                            f"(last op is {inner.name})"
                        )
                if block.is_empty and requires_terminator:
                    errors.append(f"{op.name}: empty block requires a terminator")

        # Successors must live in the same region as the terminator.
        if op.successors:
            parent_region = op.parent_region()
            for succ in op.successors:
                if succ.parent is not parent_region:
                    errors.append(
                        f"{op.name}: successor block is not in the same region"
                    )

        dominance_errors.extend(operand_dominance_errors(op, dominance))

    errors.extend(dominance_errors)
    return errors


def verify(root: Operation, *, raise_on_error: bool = True) -> List[str]:
    """Verify ``root``; raise :class:`VerificationError` on failure."""
    errors = collect_errors(root)
    if errors and raise_on_error:
        raise VerificationError(errors)
    return errors
