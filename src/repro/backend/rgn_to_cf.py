"""Lowering rgn to a flat CFG (§IV-C).

The semantics of rgn is given entirely by adding structure to flat CFGs, so
the lowering forgets that structure, driven by ``rgn.run``:

* ``rgn.run`` of a known ``rgn.val`` compiles to a branch to (the block made
  from) that region,
* ``rgn.run`` of an ``arith.select`` over regions compiles to a conditional
  branch,
* ``rgn.run`` of a ``rgn.switch`` compiles to a jump table (``cf.switch``),
* dead ``rgn.val`` definitions are dropped.

``lp.return`` becomes ``func.return`` and ``lp.unreachable`` becomes
``cf.unreachable``.  lp data operations survive untouched; they are the
operations the CFG interpreter executes against the runtime.
"""

from __future__ import annotations

from typing import Dict, List

from ..dialects import arith, cf, lp, rgn
from ..dialects.builtin import ModuleOp
from ..dialects.func import FuncOp, ReturnOp
from ..ir.core import Block, Operation, Value
from ..transforms.dce import eliminate_dead_code


class RgnToCfError(Exception):
    """Raised when a region value cannot be resolved to branch targets."""


class RgnToCfLowering:
    """Flattens one function's rgn structure into basic blocks."""

    def __init__(self, func: FuncOp):
        self.func = func
        #: rgn.val operation -> CFG block created from its body.
        self._val_blocks: Dict[Operation, Block] = {}

    # -- entry point -----------------------------------------------------------
    def run(self) -> None:
        if self.func.entry_block is None:
            return
        # Process blocks until no structured terminators remain.  New blocks
        # are appended to the function region as region values are flattened.
        index = 0
        region = self.func.body
        while index < len(region.blocks):
            block = region.blocks[index]
            index += 1
            self._lower_terminator(block)
        self._cleanup()

    # -- block creation -------------------------------------------------------------
    def _block_for_val(self, val_op: rgn.ValOp) -> Block:
        existing = self._val_blocks.get(val_op)
        if existing is not None:
            return existing
        body = val_op.body_block
        new_block = Block()
        self.func.body.add_block(new_block)
        for arg in body.arguments:
            new_arg = new_block.add_argument(arg.type, arg.name_hint)
            arg.replace_all_uses_with(new_arg)
        new_block.take_ops_from(body)
        self._val_blocks[val_op] = new_block
        return new_block

    # -- terminator lowering -----------------------------------------------------------
    def _lower_terminator(self, block: Block) -> None:
        terminator = block.last_op
        if terminator is None:
            return
        if isinstance(terminator, lp.ReturnOp):
            value = terminator.value
            operands = [value] if value is not None else []
            terminator.erase()
            block.append(ReturnOp(operands))
            return
        if isinstance(terminator, lp.UnreachableOp):
            terminator.erase()
            block.append(cf.UnreachableOp())
            return
        if isinstance(terminator, rgn.RunOp):
            self._lower_run(block, terminator)
            return
        # func.return / cf.* terminators are already in final form.

    def _lower_run(self, block: Block, run: rgn.RunOp) -> None:
        region_value = run.region_value
        args = run.args
        producer = region_value.owner_op()
        run.erase()

        if isinstance(producer, rgn.ValOp):
            dest = self._block_for_val(producer)
            block.append(cf.BranchOp(dest, args))
            return
        if isinstance(producer, arith.SelectOp):
            true_block = self._resolve_to_block(producer.true_value, args)
            false_block = self._resolve_to_block(producer.false_value, args)
            block.append(
                cf.CondBranchOp(producer.condition, true_block, false_block, args, args)
            )
            return
        if isinstance(producer, rgn.SwitchOp):
            if args:
                raise RgnToCfError(
                    "rgn.run of a rgn.switch with arguments is not supported"
                )
            default_block = self._resolve_to_block(producer.default_region, [])
            case_blocks = [
                self._resolve_to_block(v, []) for v in producer.case_regions
            ]
            block.append(
                cf.SwitchOp(producer.flag, default_block, producer.case_values, case_blocks)
            )
            return
        raise RgnToCfError(
            f"cannot resolve region value produced by {producer.name if producer else region_value!r}"
        )

    def _resolve_to_block(self, region_value: Value, args: List[Value]) -> Block:
        """Resolve a region value to a branch-target block.

        Nested selects/switches are resolved by introducing trampoline blocks
        holding the residual dispatch.
        """
        producer = region_value.owner_op()
        if isinstance(producer, rgn.ValOp):
            dest = self._block_for_val(producer)
            if args and len(dest.arguments) != len(args):
                raise RgnToCfError(
                    "argument count mismatch when branching to a region block"
                )
            return dest
        if isinstance(producer, (arith.SelectOp, rgn.SwitchOp)):
            trampoline = Block()
            self.func.body.add_block(trampoline)
            trampoline.append(rgn.RunOp(region_value, args))
            return trampoline
        raise RgnToCfError(
            f"cannot resolve region value produced by "
            f"{producer.name if producer else region_value!r}"
        )

    # -- cleanup -----------------------------------------------------------------------------
    def _cleanup(self) -> None:
        # Remove the (now empty) rgn.val shells and any dispatch ops whose
        # results became unused.  rgn.val is Pure and DCE runs to fixpoint,
        # so one sweep leaves nothing dead behind.
        eliminate_dead_code(self.func)


def lower_rgn_to_cf(module: ModuleOp) -> ModuleOp:
    """Lower every function of ``module`` from rgn form to a flat CFG."""
    for func in module.functions():
        RgnToCfLowering(func).run()
    return module
