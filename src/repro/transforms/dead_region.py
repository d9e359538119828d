"""Dead region elimination (Figure 1 A / §IV-B.1).

Dead *expression* elimination in a functional compiler removes let bindings
whose bound expression is never referenced.  In the rgn encoding a
let-bound sub-expression is a ``rgn.val``; if its SSA result has no uses it
is never run, hence dead.  This is exactly SSA dead code elimination
restricted to region values: the generic ``dce`` pass
(:func:`repro.transforms.dce.eliminate_dead_code`) removes dead regions
unchanged.  The pattern below lets the canonicalize drain interleave that
erasure with folding, and ``canonicalize{ablate=dead-region}`` drops it.
"""

from __future__ import annotations

from typing import List

from ..dialects.rgn import ValOp
from ..ir.core import Operation
from ..rewrite.pattern import PatternRewriter, RewritePattern


class EraseDeadRegionValue(RewritePattern):
    """A ``rgn.val`` whose result is never referenced is never run — erase it.

    This is dead region elimination expressed as a rewrite pattern (so the
    canonicalisation fixpoint can interleave it with folding).  Erasing one
    region value releases every use its body held, which is what lets whole
    towers of transitively dead join points collapse: the body of a dead
    region often holds the only ``rgn.run`` of an earlier region value, so
    its erasure makes that earlier value dead in turn.  The worklist driver
    learns this through the erase notifications; the rescan driver needs one
    extra full sweep per nesting level.
    """

    op_name = ValOp.OP_NAME
    num_operands = 0

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if not isinstance(op, ValOp) or op.results_used():
            return False
        rewriter.erase_op(op)
        return True


def dead_region_patterns() -> List[RewritePattern]:
    return [EraseDeadRegionValue()]
