"""Lowering lp control flow to the rgn dialect (§IV-A, Figure 8).

* ``lp.switch`` with two outcomes → ``arith.cmpi`` + ``arith.select`` over
  two ``rgn.val`` values, then ``rgn.run`` (Figure 8 A),
* ``lp.switch`` with more outcomes → ``rgn.switch`` over one ``rgn.val`` per
  arm, then ``rgn.run`` (Figure 8 B),
* ``lp.joinpoint`` → a ``rgn.val`` naming the join body; the pre-jump code is
  inlined in place of the join point and each ``lp.jump`` becomes a
  ``rgn.run`` of the named region (Figure 8 C).

Data operations of the lp dialect (constructors, projections, closures,
reference counts) are untouched — only control flow changes shape.

The lowering is incremental at module scale: join-point labels live in a
chained :class:`~repro.backend.lowering_context.LabelScope` (O(1) extension
per arm/join body instead of one dict copy each), and when the shared
:class:`LoweringContext` carries the symbol table that ``lp_codegen`` just
built for this module, the lowering iterates it instead of re-scanning the
module body for functions.
"""

from __future__ import annotations

from typing import List, Optional

from ..dialects import arith, lp, rgn
from ..dialects.builtin import ModuleOp
from ..ir.builder import Builder, InsertionPoint
from ..ir.core import Block, Value
from .lowering_context import LabelScope, LoweringContext


class LpToRgnError(Exception):
    """Raised when lp control flow cannot be lowered."""


def _move_block_contents(source: Block, dest: Block) -> None:
    """Move all operations of ``source`` to the end of ``dest`` (one O(1)
    splice per op, no list copies)."""
    dest.take_ops_from(source)


class LpToRgnLowering:
    """Lowers the control flow of every function in a module."""

    def __init__(self, module: ModuleOp, context: Optional[LoweringContext] = None):
        self.module = module
        self.context = context if context is not None else LoweringContext()

    def run(self) -> ModuleOp:
        for func in self._module_functions():
            if func.entry_block is not None:
                self._lower_block(func.entry_block, LabelScope())
        return self.module

    def _module_functions(self):
        """The module's functions, from the context symbol table when it was
        built for *this* module (the pipeline fills it during lp codegen
        immediately before this lowering); otherwise a module body scan."""
        symbols = list(self.context.symbols.values())
        if symbols and all(op.parent_op() is self.module for op in symbols):
            return symbols
        return self.module.functions()

    # -- per-block lowering ---------------------------------------------------------
    def _lower_block(self, block: Block, labels: LabelScope) -> None:
        terminator = block.last_op
        if terminator is None:
            return
        if isinstance(terminator, lp.SwitchOp):
            self._lower_switch(block, terminator, labels)
        elif isinstance(terminator, lp.JoinPointOp):
            self._lower_joinpoint(block, terminator, labels)
        elif isinstance(terminator, lp.JumpOp):
            self._lower_jump(block, terminator, labels)
        # lp.return / lp.unreachable stay as they are.

    def _lower_switch(
        self, block: Block, switch: lp.SwitchOp, labels: LabelScope
    ) -> None:
        builder = Builder(InsertionPoint.before(switch))
        # One rgn.val per arm; arms are lowered recursively.  Arms only read
        # the enclosing labels, so they share the scope — definitions made
        # inside an arm live in that arm's child scopes and cannot leak.
        arm_values: List[Value] = []
        for region in switch.case_regions:
            val = builder.create(rgn.ValOp)
            _move_block_contents(region.blocks[0], val.body_block)
            self._lower_block(val.body_block, labels)
            arm_values.append(val.result())
        default_value: Value
        if switch.has_default:
            val = builder.create(rgn.ValOp)
            _move_block_contents(switch.default_block, val.body_block)
            self._lower_block(val.body_block, labels)
            default_value = val.result()
        else:
            default_value = arm_values[-1]

        case_values = switch.case_values
        tag = switch.tag
        outcomes = list(arm_values)
        if not switch.has_default and outcomes:
            outcomes = outcomes[:-1]
            case_values = case_values[:-1]

        if len(case_values) == 1:
            # Two-way dispatch: compare against the single case value and
            # select between the two regions (Figure 8 A).
            constant = builder.create(arith.ConstantOp, case_values[0], tag.type)
            condition = builder.create(arith.CmpIOp, "eq", tag, constant.result())
            selected = builder.create(
                arith.SelectOp, condition.result(), outcomes[0], default_value
            ).result()
        elif not case_values:
            selected = default_value
        else:
            selected = builder.create(
                rgn.SwitchOp, tag, default_value, case_values, outcomes
            ).result()
        builder.create(rgn.RunOp, selected)
        switch.erase()

    def _lower_joinpoint(
        self, block: Block, joinpoint: lp.JoinPointOp, labels: LabelScope
    ) -> None:
        builder = Builder(InsertionPoint.before(joinpoint))
        arg_types = joinpoint.arg_types
        val = builder.create(rgn.ValOp, arg_types)
        # Move the after-jump body into the region value, remapping the
        # join parameters onto the new entry block arguments.
        source_body = joinpoint.body_block
        for old_arg, new_arg in zip(source_body.arguments, val.body_block.arguments):
            new_arg.name_hint = old_arg.name_hint
            old_arg.replace_all_uses_with(new_arg)
        _move_block_contents(source_body, val.body_block)

        # The join body cannot jump to itself; it sees only the outer labels.
        self._lower_block(val.body_block, labels)

        # Inline the pre-jump code after the region definition; it becomes
        # the remainder of the current block, which *can* jump to the new
        # label — extend the scope in O(1) instead of copying the map.
        inner = labels.child()
        inner.define(joinpoint.label, val.result())
        pre_block = joinpoint.pre_block
        for op in pre_block:
            op.detach()
            block.insert_before(op, joinpoint)
        joinpoint.erase()
        self._lower_block(block, inner)

    def _lower_jump(
        self, block: Block, jump: lp.JumpOp, labels: LabelScope
    ) -> None:
        target = labels.lookup(jump.label)
        if target is None:
            raise LpToRgnError(f"lp.jump to unknown join point @{jump.label}")
        builder = Builder(InsertionPoint.before(jump))
        builder.create(rgn.RunOp, target, jump.args)
        jump.erase()


def lower_lp_to_rgn(
    module: ModuleOp, context: Optional[LoweringContext] = None
) -> ModuleOp:
    """Lower all lp control flow in ``module`` to rgn form (in place)."""
    return LpToRgnLowering(module, context).run()
