"""Rewrite patterns and the rewriter handle passed to them.

A :class:`RewritePattern` matches a single operation and, if it applies,
mutates the IR through the :class:`PatternRewriter` so the driver can track
what changed.  Every mutation funnels into one of the notification hooks
(:meth:`PatternRewriter.notify_op_inserted`,
:meth:`~PatternRewriter.notify_op_modified`,
:meth:`~PatternRewriter.notify_op_erased`), which is what lets the worklist
driver stay incremental: it never rescans the module, it only requeues what a
pattern reported.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..ir.builder import Builder, InsertionPoint
from ..ir.core import Operation, Value


class PatternRewriter(Builder):
    """Mutation handle given to patterns.

    All IR changes made during a pattern application should go through this
    object so that the greedy driver can requeue affected operations.  The
    insertion point is materialised lazily (computing ``index(op)`` for every
    match attempt would put an O(block size) walk on the driver's hot path).
    """

    def __init__(self, op: Operation):
        super().__init__(None)
        self.current_op = op
        #: Operations created or modified during this application; the driver
        #: requeues them (deduplicated) after the pattern returns.
        self.touched: List[Operation] = []
        #: Operations erased during this application.
        self.erased: List[Operation] = []
        self.changed = False

    # -- notification hooks -------------------------------------------------------
    # The driver consumes ``touched``/``erased`` after each application; any
    # subclass or external listener can override these to observe rewrites.

    def notify_op_inserted(self, op: Operation) -> None:
        """``op`` was created (or moved) during this application.

        The whole nested subtree is reported: a cloned op may carry regions
        full of ops that became matchable through the clone's operand
        substitution, and the worklist driver has no rescan to find them.
        """
        self.touched.extend(op.walk())
        self.changed = True

    def notify_op_modified(self, op: Operation) -> None:
        """``op`` was modified in place (operands, attributes, regions)."""
        self.touched.append(op)
        self.changed = True

    def notify_op_erased(self, op: Operation) -> None:
        """``op`` was erased; the driver drops stale queue entries lazily."""
        self.erased.append(op)
        self.changed = True

    # -- creation ---------------------------------------------------------------
    def _materialize_insertion_point(self) -> None:
        if self._ip is not None:
            return
        if self.current_op.parent is None:
            raise ValueError(
                f"cannot insert relative to {self.current_op.name}: the "
                "matched op is no longer attached — create new ops before "
                "erasing it, or set an insertion point explicitly"
            )
        self._ip = InsertionPoint.before(self.current_op)

    @property
    def insertion_point(self) -> InsertionPoint:
        self._materialize_insertion_point()
        return self._ip

    def insert(self, op: Operation) -> Operation:
        self._materialize_insertion_point()
        op = super().insert(op)
        self.notify_op_inserted(op)
        return op

    # -- replacement ------------------------------------------------------------
    def replace_op(
        self,
        op: Operation,
        replacements: Union[Operation, Value, Sequence[Value], None],
    ) -> None:
        """Replace ``op``'s results with ``replacements`` and erase it."""
        if replacements is not None:
            # The users of the old results now have new operands and may have
            # become matchable; requeue them before rewiring.
            for result in op.results:
                for user in result.users():
                    self.notify_op_modified(user)
            op.replace_all_uses_with(replacements)
            if isinstance(replacements, Operation):
                self.notify_op_modified(replacements)
        self.erase_op(op)

    def erase_op(self, op: Operation) -> None:
        """Erase ``op`` (its results must be unused by now)."""
        for result in op.results:
            if result.has_uses:
                raise ValueError(
                    f"cannot erase {op.name}: result still has uses"
                )
        # Erasing releases every use held by the whole nested subtree (region
        # bodies included), so collect the released values first.
        released = []
        seen = set()
        for sub in op.walk():
            for operand in sub.operands:
                if operand not in seen:
                    seen.add(operand)
                    released.append(operand)
        op.erase()
        self.notify_op_erased(op)
        for operand in released:
            # The producer may now be dead or otherwise optimisable once this
            # use disappears.
            owner = operand.owner_op()
            if owner is not None and not owner.erased:
                self.notify_op_modified(owner)
            # When the value just became single-use, its one remaining user
            # may newly match a use-count-gated pattern (e.g. inlining a
            # region value once it is run from a single site).  The seed
            # driver missed this notification entirely and relied on its
            # outer rescan loop to pick such matches up one full sweep
            # later.  Only the 1-use transition is interesting — notifying
            # every remaining user of a widely shared value would fan one
            # erasure out into O(uses) requeues.
            if len(operand.uses) == 1:
                user = operand.uses[0].owner
                if not user.erased:
                    self.notify_op_modified(user)

    def replace_all_uses_with(self, old: Value, new: Value) -> None:
        for use in list(old.uses):
            self.notify_op_modified(use.owner)
        old.replace_all_uses_with(new)
        self.changed = True

    def notify_changed(self, op: Optional[Operation] = None) -> None:
        """Record an in-place modification of ``op`` (or the matched op)."""
        self.notify_op_modified(op if op is not None else self.current_op)


class RewritePattern:
    """Base class of rewrite patterns.

    Attributes:
        op_name: if set, the driver only tries the pattern on operations with
            this name (a cheap pre-filter).  Patterns without one are
            *generic* and tried on every operation — expensive in a large
            unified pattern drain, so set a root filter whenever possible.
        num_operands: if set, the pattern can only match operations with
            exactly this many operands; the driver skips everything else
            before calling :meth:`match_and_rewrite` (skips are reported as
            ``prefilter-skips`` in the pattern statistics).
        min_num_operands: like ``num_operands`` but a lower bound — for
            patterns rooted at variadic operations (e.g. a switch carrying
            its flag plus any number of case operands).
        benefit: patterns with larger benefit are tried first.
    """

    op_name: Optional[str] = None
    num_operands: Optional[int] = None
    min_num_operands: int = 0
    benefit: int = 1

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        """Attempt to match ``op`` and rewrite it.

        Returns True when the pattern applied (the driver then re-processes
        affected operations).
        """
        raise NotImplementedError
