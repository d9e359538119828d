"""The arith dialect: integer constants, equality comparison and select.

These are the ops the lp→rgn lowering builds for a two-way case: the tag
test is ``arith.cmpi "eq"`` against an ``arith.constant``, and
``arith.select`` chooses between the two outcomes.  Integer arithmetic is
made of runtime calls (``lean_nat_add`` ...), as in Lean, so the dialect
has no arithmetic ops.

``arith.select`` is deliberately type-generic: as the paper proposes, region
values (``!rgn.region``) may flow through ``select`` so that classical select
folds become functional case-elimination optimisations.
"""

from __future__ import annotations

from typing import Optional

from ..ir.attributes import IntegerAttr, StringAttr
from ..ir.core import Operation, Value
from ..ir.dialect import Dialect
from ..ir.traits import ConstantLike, Pure
from ..ir.types import IntegerType, Type, i1, i64

arith_dialect = Dialect("arith")

#: Comparison predicates accepted by :class:`CmpIOp`.
CMP_PREDICATES = ("eq",)


@arith_dialect.register_op
class ConstantOp(Operation):
    """``arith.constant`` — materialise an integer constant."""

    OP_NAME = "arith.constant"
    TRAITS = frozenset({Pure, ConstantLike})

    def __init__(self, value: int, type: Optional[Type] = None):
        type = type if type is not None else i64
        super().__init__(
            result_types=[type], attributes={"value": IntegerAttr(value, type)}
        )

    @property
    def value(self) -> int:
        return self.attributes["value"].value


@arith_dialect.register_op
class CmpIOp(Operation):
    """``arith.cmpi`` — integer comparison producing an ``i1``."""

    OP_NAME = "arith.cmpi"
    TRAITS = frozenset({Pure})

    def __init__(self, predicate: str, lhs: Value, rhs: Value):
        if predicate not in CMP_PREDICATES:
            raise ValueError(f"unknown cmpi predicate {predicate!r}")
        super().__init__(
            operands=[lhs, rhs],
            result_types=[i1],
            attributes={"predicate": StringAttr(predicate)},
        )

    @property
    def predicate(self) -> str:
        return self.attributes["predicate"].value

    def verify_(self) -> None:
        if self.attributes["predicate"].value not in CMP_PREDICATES:
            raise ValueError("invalid cmpi predicate")


@arith_dialect.register_op
class SelectOp(Operation):
    """``arith.select`` — choose between two values of the same type.

    The condition is an ``i1``.  The chosen values may be of any type,
    including ``!rgn.region`` — this is the hook the paper uses to express
    two-way case statements over first-class regions (Figure 8 A).
    """

    OP_NAME = "arith.select"
    TRAITS = frozenset({Pure})

    def __init__(self, condition: Value, true_value: Value, false_value: Value):
        super().__init__(
            operands=[condition, true_value, false_value],
            result_types=[true_value.type],
        )

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_value(self) -> Value:
        return self.operands[1]

    @property
    def false_value(self) -> Value:
        return self.operands[2]

    def verify_(self) -> None:
        if len(self.operands) != 3:
            raise ValueError("arith.select expects exactly three operands")
        cond, tv, fv = self.operands
        if not (isinstance(cond.type, IntegerType) and cond.type.width == 1):
            raise ValueError("arith.select condition must be i1")
        if tv.type != fv.type:
            raise ValueError("arith.select branches must have the same type")


def evaluate_cmpi(predicate: str, lhs: int, rhs: int) -> int:
    """Evaluate an ``arith.cmpi`` predicate on Python integers."""
    if predicate not in CMP_PREDICATES:
        raise ValueError(f"unknown cmpi predicate {predicate!r}")
    return 1 if lhs == rhs else 0
