"""A simple function inliner.

The paper relies on MLIR's builtin inliner (Figure 11).  We provide a
conservative analogue: direct ``func.call`` sites whose callee

* is defined in the same module,
* is not (mutually) recursive with the caller,
* has a single-block body ending in ``func.return`` or ``lp.return``, and
* is small (at most ``max_callee_ops`` operations)

are replaced by a clone of the callee body with arguments substituted.
A cloned ``musttail`` call keeps its mark only where it is still in tail
position, i.e. where the inlined call site was itself returned.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..dialects.builtin import ModuleOp
from ..dialects.func import CallOp, FuncOp, ReturnOp
from ..dialects.lp import ReturnOp as LpReturnOp
from ..ir.core import IRMapping, Operation
from ..rewrite.pass_manager import ModulePass
from ..rewrite.registry import PassOption, register_pass


@register_pass
class InlinerPass(ModulePass):
    """Inline small, non-recursive, single-block callees at direct call sites."""

    name = "inline"

    SPEC_OPTIONS = (
        PassOption(
            "max-callee-ops",
            "largest callee body (in operations) considered for inlining",
            default="16",
        ),
    )

    @classmethod
    def from_spec_options(cls, options):
        raw = options.get("max-callee-ops", ["16"])[-1]
        try:
            limit = int(raw)
        except ValueError:
            raise ValueError(f"max-callee-ops={raw!r} is not an integer")
        return cls(max_callee_ops=limit)

    def __init__(self, max_callee_ops: int = 16):
        super().__init__()
        self.max_callee_ops = max_callee_ops

    # -- call graph -----------------------------------------------------------
    def _direct_callees(self, func: FuncOp) -> Set[str]:
        return {
            op.callee for op in func.walk() if isinstance(op, CallOp)
        }

    def _reachable(self, start: str, callees: Dict[str, Set[str]]) -> Set[str]:
        seen: Set[str] = set()
        stack = [start]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(callees.get(current, ()))
        return seen

    def _is_inlinable(self, callee: FuncOp) -> bool:
        if callee.is_declaration:
            return False
        if len(callee.body.blocks) != 1:
            return False
        block = callee.body.blocks[0]
        if len(block) > self.max_callee_ops:
            return False
        terminator = block.terminator
        return isinstance(terminator, (ReturnOp, LpReturnOp))

    # -- inlining -----------------------------------------------------------------
    def _inline_call(self, call: CallOp, callee: FuncOp) -> None:
        block = callee.body.blocks[0]
        mapping = IRMapping()
        for formal, actual in zip(block.arguments, call.operands):
            mapping.map_value(formal, actual)
        returned = None
        insert_block = call.parent
        tail_calls = []
        for op in block:
            if isinstance(op, (ReturnOp, LpReturnOp)):
                returned = [mapping.lookup(v) for v in op.operands]
                break
            cloned = op.clone(mapping)
            insert_block.insert_before(cloned, call)
            if isinstance(cloned, CallOp) and cloned.is_musttail:
                tail_calls.append(cloned)
        if returned is None:
            returned = []
        call.replace_all_uses_with(returned)
        call.erase()
        for cloned in tail_calls:
            if not cloned.in_tail_position:
                cloned.remove_attr("musttail")
        self.statistics.bump("calls-inlined")

    def run(self, module: Operation) -> None:
        if not isinstance(module, ModuleOp):
            return
        functions: Dict[str, FuncOp] = {
            f.sym_name: f for f in module.functions()
        }
        callees = {name: self._direct_callees(f) for name, f in functions.items()}
        for caller_name, caller in functions.items():
            for op in list(caller.walk()):
                if not isinstance(op, CallOp):
                    continue
                callee = functions.get(op.callee)
                if callee is None or not self._is_inlinable(callee):
                    continue
                # Refuse recursion: the callee must not reach the caller or
                # itself through direct calls.
                reachable = self._reachable(callee.sym_name, callees)
                if caller_name in reachable or callee.sym_name in callees.get(
                    callee.sym_name, set()
                ):
                    continue
                if op.parent is None:
                    continue
                self._inline_call(op, callee)
