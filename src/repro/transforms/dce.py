"""Dead code elimination.

As the paper observes (§IV-B.1), dead code elimination requires *no changes*
to work with region values: a ``rgn.val`` whose result is never referenced is
never executed, hence dead.  The pass removes any operation that

* carries the :class:`~repro.ir.traits.Pure` trait (no side effects), and
* has no remaining uses of any of its results,

iterating until a fixpoint because removing one op may make its producers
dead as well.
"""

from __future__ import annotations

from ..ir.core import Operation
from ..ir.traits import Pure
from ..rewrite.pass_manager import FunctionPass
from ..rewrite.registry import register_pass


def eliminate_dead_code(root: Operation) -> int:
    """Remove dead pure operations nested under ``root``.

    Returns the number of erased operations.

    Like the pattern driver, this is worklist-driven rather than
    sweep-to-fixpoint: the IR is walked once (users before producers), and
    erasing an op requeues only the producers of the values it — or anything
    nested inside it — used, since those are the only ops that can newly
    become dead.
    """
    erased_total = 0
    # Seed in pre-order; popping from the end then visits users before the
    # producers they reference.
    stack = [op for op in root.walk() if op is not root]
    while stack:
        op = stack.pop()
        if op.erased or op.parent is None:
            continue
        if not op.has_trait(Pure) or not op.results or op.results_used():
            continue
        # Erasing releases every use held by the whole nested subtree, so
        # any producer referenced from inside may become dead.
        producers = set()
        for sub in op.walk():
            for operand in sub.operands:
                owner = operand.owner_op()
                if owner is not None:
                    producers.add(owner)
        op.erase()
        erased_total += 1
        for producer in producers:
            if not producer.erased:
                stack.append(producer)
    return erased_total


@register_pass
class DeadCodeEliminationPass(FunctionPass):
    """Remove all dead pure operations in every function."""

    name = "dce"

    def run_on_function(self, func) -> None:
        erased = eliminate_dead_code(func)
        self.statistics.bump("ops-erased", erased)
