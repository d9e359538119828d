"""Dup/drop fusion on the lp dialect.

The SSA twin of :mod:`repro.rc_opt.fusion`: within every basic block, scan
maximal runs of consecutive ``lp.inc`` / ``lp.dec`` operations and

* cancel an ``lp.inc`` against a later ``lp.dec`` of the *same SSA value*
  in the same run (never the converse — a decrement may free), and
* merge adjacent same-kind operations on the same value into a single op
  with a larger ``count``.

The compiler runs it right after lp codegen, before lp→rgn, so it sees
exactly the runs λrc-level fusion already normalised: over the benchmark
suite at both optimised RC modes and over generated fuzz programs it
removes no op.  It shows the same optimisation expressed as a rewrite over
region-based SSA rather than over a tree IR.
"""

from __future__ import annotations

from typing import List

from ..dialects import lp
from ..ir.attributes import IntegerAttr
from ..ir.core import Block, Operation
from ..rewrite.pass_manager import FunctionPass
from ..rewrite.registry import register_pass


def _fuse_block(block: Block) -> int:
    """Fuse RC runs inside one block; returns the number of removed ops.

    Walks the intrusive op list once, collecting each maximal inc/dec run
    before fusing it — the cursor is already past a run when its members are
    erased, so no snapshot of the block is needed.
    """
    removed = 0
    op = block.first_op
    while op is not None:
        if not isinstance(op, (lp.IncOp, lp.DecOp)):
            op = op.next_op
            continue
        run: List[Operation] = []
        while op is not None and isinstance(op, (lp.IncOp, lp.DecOp)):
            run.append(op)
            op = op.next_op
        removed += _fuse_run(run)
    return removed


def _fuse_run(run: List[Operation]) -> int:
    counts = {id(op): op.count for op in run}
    # Cancel decs against earlier incs of the same SSA value.
    for position, op in enumerate(run):
        if not isinstance(op, lp.DecOp):
            continue
        remaining = counts[id(op)]
        for earlier in run[:position]:
            if not isinstance(earlier, lp.IncOp):
                continue
            if earlier.value is not op.value:
                continue
            available = counts[id(earlier)]
            cancelled = min(available, remaining)
            if cancelled <= 0:
                continue
            counts[id(earlier)] -= cancelled
            remaining -= cancelled
            if remaining == 0:
                break
        counts[id(op)] = remaining
    removed = 0
    survivors: List[Operation] = []
    for op in run:
        if counts[id(op)] == 0:
            op.erase()
            removed += 1
            continue
        survivors.append(op)
    # Merge adjacent same-kind ops on the same value.
    merged: List[Operation] = []
    for op in survivors:
        if (
            merged
            and type(merged[-1]) is type(op)
            and merged[-1].value is op.value
        ):
            keep = merged[-1]
            counts[id(keep)] += counts[id(op)]
            op.erase()
            removed += 1
        else:
            merged.append(op)
    for op in merged:
        op.set_attr("count", IntegerAttr(counts[id(op)]))
    return removed


@register_pass
class LpRcFusionPass(FunctionPass):
    """Cancel/merge ``lp.inc``/``lp.dec`` runs in every function."""

    name = "lp-rc-fusion"

    def run_on_function(self, func) -> None:
        removed = 0
        for op in list(func.walk()):
            for region in op.regions:
                for block in region.blocks:
                    removed += _fuse_block(block)
        if removed:
            self.statistics.bump("rc-ops-removed", removed)
