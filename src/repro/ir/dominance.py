"""Dominance analysis for CFG regions.

Used by the verifier (operands must dominate their uses; it asks only
about operands outside its walk's scope) and by the value-numbering
passes.  The algorithm is the classic iterative dominator
data-flow computation; our regions are small so simplicity wins over the
Lengauer-Tarjan algorithm.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .core import Block, Operation, Region, Value


class DominanceInfo:
    """Dominator sets for the blocks of a single region."""

    def __init__(self, region: Region):
        self.region = region
        self.dominators: Dict[Block, Set[Block]] = {}
        self._compute()

    def _compute(self) -> None:
        blocks = self.region.blocks
        if not blocks:
            return
        entry = blocks[0]
        all_blocks = set(blocks)
        self.dominators[entry] = {entry}
        for block in blocks[1:]:
            self.dominators[block] = set(all_blocks)
        changed = True
        while changed:
            changed = False
            for block in blocks[1:]:
                preds = block.predecessors()
                if preds:
                    new_doms = set(all_blocks)
                    for pred in preds:
                        new_doms &= self.dominators[pred]
                else:
                    # Unreachable block: only dominated by itself.
                    new_doms = set()
                new_doms |= {block}
                if new_doms != self.dominators[block]:
                    self.dominators[block] = new_doms
                    changed = True

    def dominates_block(self, a: Block, b: Block) -> bool:
        """True if block ``a`` dominates block ``b`` (both in this region)."""
        return a in self.dominators.get(b, set())

    def properly_dominates_block(self, a: Block, b: Block) -> bool:
        return a is not b and self.dominates_block(a, b)


class DominanceAnalysis:
    """Lazy per-region dominance info plus value/op level queries that
    understand nested regions (a value defined in an enclosing region is
    visible in all nested regions, as in MLIR)."""

    def __init__(self):
        self._per_region: Dict[int, DominanceInfo] = {}

    def info(self, region: Region) -> DominanceInfo:
        key = id(region)
        if key not in self._per_region:
            self._per_region[key] = DominanceInfo(region)
        return self._per_region[key]

    def invalidate(self) -> None:
        self._per_region.clear()

    # -- queries -------------------------------------------------------------
    def value_dominates_op(self, value: Value, op: Operation) -> bool:
        """True if ``value`` is available at (i.e. dominates) ``op``."""
        def_block = value.owner_block()
        if def_block is None:
            return False
        # Hoist the use up until it lives in the same region as the definition.
        use_op: Optional[Operation] = op
        while use_op is not None and use_op.parent is not None:
            if use_op.parent.parent is def_block.parent:
                break
            use_op = use_op.parent_op()
        if use_op is None or use_op.parent is None:
            return False
        use_block = use_op.parent

        def_op = value.owner_op()
        if def_block is use_block:
            if def_op is None:
                return True  # block argument dominates everything in the block
            if def_op is use_op:
                return False
            return def_op.is_before_in_block(use_op)
        region = def_block.parent
        if region is None:
            return False
        return self.info(region).properly_dominates_block(def_block, use_block)


def operand_dominance_errors(op: Operation, analysis: DominanceAnalysis) -> List[str]:
    """Dominance errors of ``op``'s own operands (nested ops not included)."""
    errors: List[str] = []
    for i, operand in enumerate(op.operands):
        if operand.owner_block() is None:
            errors.append(f"{op.name}: operand {i} has no defining block")
        elif not analysis.value_dominates_op(operand, op):
            errors.append(f"{op.name}: operand {i} does not dominate its use")
    return errors


def verify_dominance(op: Operation) -> List[str]:
    """Check SSA dominance for every operand use nested under ``op``, one
    precise query per op.

    Returns a list of human-readable error strings (empty when valid).
    This is the oracle for the verifier's scoped walk
    (:func:`~repro.ir.verifier.collect_errors`), whose dominance errors
    must equal these (``tests/test_ir_text_and_verify.py``).
    """
    errors: List[str] = []
    analysis = DominanceAnalysis()
    for nested in op.walk():
        errors.extend(operand_dominance_errors(nested, analysis))
    return errors
