"""The arith dialect: integer constants, arithmetic, comparison and select.

``arith.select`` is deliberately type-generic: as the paper proposes, region
values (``!rgn.region``) may flow through ``select`` so that classical select
folds become functional case-elimination optimisations.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import IntegerAttr, StringAttr
from ..ir.core import Operation, Value
from ..ir.dialect import Dialect
from ..ir.traits import ConstantLike, Pure
from ..ir.types import IntegerType, Type, i1, i64

arith_dialect = Dialect("arith")

#: Comparison predicates accepted by :class:`CmpIOp`.
CMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")


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


class _BinaryOp(Operation):
    """Common base for binary integer arithmetic."""

    TRAITS = frozenset({Pure})

    def __init__(self, lhs: Value, rhs: Value):
        super().__init__(operands=[lhs, rhs], result_types=[lhs.type])

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def verify_(self) -> None:
        if len(self.operands) == 2 and self.operands[0].type != self.operands[1].type:
            raise ValueError(
                f"operand types differ: {self.operands[0].type} vs "
                f"{self.operands[1].type}"
            )


@arith_dialect.register_op
class AddIOp(_BinaryOp):
    """``arith.addi`` — integer addition."""

    OP_NAME = "arith.addi"


@arith_dialect.register_op
class SubIOp(_BinaryOp):
    """``arith.subi`` — integer subtraction."""

    OP_NAME = "arith.subi"


@arith_dialect.register_op
class MulIOp(_BinaryOp):
    """``arith.muli`` — integer multiplication."""

    OP_NAME = "arith.muli"


@arith_dialect.register_op
class DivSIOp(_BinaryOp):
    """``arith.divsi`` — signed integer division."""

    OP_NAME = "arith.divsi"


@arith_dialect.register_op
class RemSIOp(_BinaryOp):
    """``arith.remsi`` — signed integer remainder."""

    OP_NAME = "arith.remsi"


@arith_dialect.register_op
class AndIOp(_BinaryOp):
    """``arith.andi`` — bitwise and."""

    OP_NAME = "arith.andi"


@arith_dialect.register_op
class OrIOp(_BinaryOp):
    """``arith.ori`` — bitwise or."""

    OP_NAME = "arith.ori"


@arith_dialect.register_op
class XorIOp(_BinaryOp):
    """``arith.xori`` — bitwise xor."""

    OP_NAME = "arith.xori"


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


@arith_dialect.register_op
class TruncIOp(Operation):
    """``arith.trunci`` — truncate an integer to a narrower width."""

    OP_NAME = "arith.trunci"
    TRAITS = frozenset({Pure})

    def __init__(self, value: Value, result_type: Type):
        super().__init__(operands=[value], result_types=[result_type])


@arith_dialect.register_op
class ExtUIOp(Operation):
    """``arith.extui`` — zero-extend an integer to a wider width."""

    OP_NAME = "arith.extui"
    TRAITS = frozenset({Pure})

    def __init__(self, value: Value, result_type: Type):
        super().__init__(operands=[value], result_types=[result_type])


def _truncated_quotient(lhs: int, rhs: int) -> int:
    """``lhs / rhs`` rounded towards zero, in integer arithmetic (exact at
    any magnitude, unlike a float division)."""
    quotient = abs(lhs) // abs(rhs)
    return quotient if (lhs < 0) == (rhs < 0) else -quotient


def evaluate_binary(op_name: str, lhs: int, rhs: int) -> int:
    """Constant-fold helper shared by the folder and the interpreters."""
    if op_name == AddIOp.OP_NAME:
        return lhs + rhs
    if op_name == SubIOp.OP_NAME:
        return lhs - rhs
    if op_name == MulIOp.OP_NAME:
        return lhs * rhs
    if op_name == DivSIOp.OP_NAME:
        if rhs == 0:
            raise ZeroDivisionError("division by zero in arith.divsi")
        return _truncated_quotient(lhs, rhs)
    if op_name == RemSIOp.OP_NAME:
        if rhs == 0:
            raise ZeroDivisionError("remainder by zero in arith.remsi")
        return lhs - _truncated_quotient(lhs, rhs) * rhs
    if op_name == AndIOp.OP_NAME:
        return lhs & rhs
    if op_name == OrIOp.OP_NAME:
        return lhs | rhs
    if op_name == XorIOp.OP_NAME:
        return lhs ^ rhs
    raise KeyError(f"not a foldable binary op: {op_name}")


def evaluate_cmpi(predicate: str, lhs: int, rhs: int) -> int:
    """Evaluate an ``arith.cmpi`` predicate on Python integers."""
    table = {
        "eq": lhs == rhs,
        "ne": lhs != rhs,
        "slt": lhs < rhs,
        "sle": lhs <= rhs,
        "sgt": lhs > rhs,
        "sge": lhs >= rhs,
        "ult": abs(lhs) < abs(rhs),
        "ule": abs(lhs) <= abs(rhs),
        "ugt": abs(lhs) > abs(rhs),
        "uge": abs(lhs) >= abs(rhs),
    }
    return 1 if table[predicate] else 0
