"""The lp dialect — the paper's SSA encoding of λpure/λrc (Figure 2).

Operations:

* ``lp.int`` / ``lp.bigint`` — machine-word and GMP-style integers,
* ``lp.construct`` / ``lp.getlabel`` / ``lp.project`` — algebraic data types,
* ``lp.switch`` — pattern matching on an integer tag (region per arm),
* ``lp.joinpoint`` / ``lp.jump`` — join points for deduplicated control flow,
* ``lp.pap`` / ``lp.papextend`` — closure creation and extension,
* ``lp.inc`` / ``lp.dec`` — reference counting (the λrc extension),
* ``lp.return`` — return a value from lp control flow,
* ``lp.unreachable`` — statically impossible arm.

Every boxed value has the single type ``!lp.t`` (λrc is type erased).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..ir.attributes import ArrayAttr, BoolAttr, IntegerAttr, StringAttr, SymbolRefAttr
from ..ir.core import Block, Operation, Region, Value
from ..ir.dialect import Dialect
from ..ir.traits import Allocates, IsTerminator, Pure
from ..ir.types import BoxType, IntegerType, Type, box, i8

lp_dialect = Dialect("lp")


# ---------------------------------------------------------------------------
# Value-producing operations
# ---------------------------------------------------------------------------


@lp_dialect.register_op
class IntOp(Operation):
    """``lp.int`` — construct a machine-word-sized (boxed) integer."""

    OP_NAME = "lp.int"
    TRAITS = frozenset({Pure})

    def __init__(self, value: int):
        super().__init__(
            result_types=[box], attributes={"value": IntegerAttr(value)}
        )

    @property
    def value(self) -> int:
        return self.attributes["value"].value


@lp_dialect.register_op
class BigIntOp(Operation):
    """``lp.bigint`` — construct an arbitrary-precision integer from a decimal
    string constant (lowered to runtime big-integer calls)."""

    OP_NAME = "lp.bigint"
    TRAITS = frozenset({Pure, Allocates})

    def __init__(self, value: str):
        super().__init__(
            result_types=[box], attributes={"value": StringAttr(str(value))}
        )

    @property
    def value(self) -> int:
        return int(self.attributes["value"].value)


@lp_dialect.register_op
class ConstructOp(Operation):
    """``lp.construct`` — build a data constructor (tagged union) value."""

    OP_NAME = "lp.construct"
    TRAITS = frozenset({Pure, Allocates})

    def __init__(self, tag: int, fields: Sequence[Value] = ()):
        super().__init__(
            operands=fields,
            result_types=[box],
            attributes={"tag": IntegerAttr(tag)},
        )

    @property
    def tag(self) -> int:
        return self.attributes["tag"].value

    @property
    def fields(self) -> List[Value]:
        return list(self.operands)

    def verify_(self) -> None:
        for i, f in enumerate(self.operands):
            if not isinstance(f.type, BoxType):
                raise ValueError(f"lp.construct field {i} must be !lp.t")


@lp_dialect.register_op
class GetLabelOp(Operation):
    """``lp.getlabel`` — read the constructor tag of a boxed value as ``i8``."""

    OP_NAME = "lp.getlabel"
    TRAITS = frozenset({Pure})

    def __init__(self, value: Value):
        super().__init__(operands=[value], result_types=[i8])

    @property
    def value(self) -> Value:
        return self.operands[0]


@lp_dialect.register_op
class ProjectOp(Operation):
    """``lp.project`` — extract the ``index``-th field of a constructor value."""

    OP_NAME = "lp.project"
    TRAITS = frozenset({Pure})

    def __init__(self, value: Value, index: int):
        super().__init__(
            operands=[value],
            result_types=[box],
            attributes={"index": IntegerAttr(index)},
        )

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> int:
        return self.attributes["index"].value


@lp_dialect.register_op
class PapOp(Operation):
    """``lp.pap`` — build a closure by partially applying a top-level function."""

    OP_NAME = "lp.pap"
    TRAITS = frozenset({Pure, Allocates})

    def __init__(self, callee: str, args: Sequence[Value] = ()):
        super().__init__(
            operands=args,
            result_types=[box],
            attributes={"callee": SymbolRefAttr(callee)},
        )

    @property
    def callee(self) -> str:
        return self.attributes["callee"].name

    @property
    def args(self) -> List[Value]:
        return list(self.operands)


@lp_dialect.register_op
class PapExtendOp(Operation):
    """``lp.papextend`` — extend a closure with more arguments; if the closure
    becomes saturated, the held function is invoked."""

    OP_NAME = "lp.papextend"

    def __init__(self, closure: Value, args: Sequence[Value]):
        super().__init__(operands=[closure, *args], result_types=[box])

    @property
    def closure(self) -> Value:
        return self.operands[0]

    @property
    def args(self) -> List[Value]:
        return list(self.operands[1:])


# ---------------------------------------------------------------------------
# Reference counting (λrc)
# ---------------------------------------------------------------------------


@lp_dialect.register_op
class IncOp(Operation):
    """``lp.inc`` — increment the reference count of a boxed value."""

    OP_NAME = "lp.inc"

    def __init__(self, value: Value, count: int = 1):
        super().__init__(
            operands=[value], attributes={"count": IntegerAttr(count)}
        )

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def count(self) -> int:
        return self.attributes["count"].value


@lp_dialect.register_op
class DecOp(Operation):
    """``lp.dec`` — decrement the reference count of a boxed value, freeing it
    (and recursively its fields) when the count reaches zero."""

    OP_NAME = "lp.dec"

    def __init__(self, value: Value, count: int = 1):
        super().__init__(
            operands=[value], attributes={"count": IntegerAttr(count)}
        )

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def count(self) -> int:
        return self.attributes["count"].value


@lp_dialect.register_op
class ResetOp(Operation):
    """``lp.reset`` — consume a reference to a constructor value and yield a
    reuse token (λrc reuse analysis).

    A uniquely-referenced cell releases its fields and becomes a live token;
    a shared cell is decremented and the token is null.
    """

    OP_NAME = "lp.reset"

    def __init__(self, value: Value):
        super().__init__(operands=[value], result_types=[box])

    @property
    def value(self) -> Value:
        return self.operands[0]


@lp_dialect.register_op
class ReuseOp(Operation):
    """``lp.reuse`` — construct a tagged value through a reuse token,
    recycling the token's memory cell in place when it is live and falling
    back to a fresh allocation when it is null."""

    OP_NAME = "lp.reuse"

    def __init__(self, token: Value, tag: int, fields: Sequence[Value] = ()):
        super().__init__(
            operands=[token, *fields],
            result_types=[box],
            attributes={"tag": IntegerAttr(tag)},
        )

    @property
    def token(self) -> Value:
        return self.operands[0]

    @property
    def tag(self) -> int:
        return self.attributes["tag"].value

    @property
    def fields(self) -> List[Value]:
        return list(self.operands[1:])

    def verify_(self) -> None:
        for i, f in enumerate(self.operands):
            if not isinstance(f.type, BoxType):
                raise ValueError(f"lp.reuse operand {i} must be !lp.t")


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------


@lp_dialect.register_op
class ReturnOp(Operation):
    """``lp.return`` — return a value from the enclosing lp function body,
    regardless of how deeply the return is nested in lp control flow."""

    OP_NAME = "lp.return"
    TRAITS = frozenset({IsTerminator})

    def __init__(self, value: Optional[Value] = None):
        super().__init__(operands=[value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None


@lp_dialect.register_op
class UnreachableOp(Operation):
    """``lp.unreachable`` — marks a statically impossible pattern-match arm."""

    OP_NAME = "lp.unreachable"
    TRAITS = frozenset({IsTerminator})

    def __init__(self):
        super().__init__()


@lp_dialect.register_op
class SwitchOp(Operation):
    """``lp.switch`` — dispatch on an integer tag.

    One single-block region per listed case value, plus (optionally) a final
    default region.  Each region ends with an lp terminator (``lp.return``,
    ``lp.jump``, ``lp.unreachable`` or a nested ``lp.switch`` /
    ``lp.joinpoint``).
    """

    OP_NAME = "lp.switch"
    TRAITS = frozenset({IsTerminator})

    def __init__(
        self,
        tag: Value,
        case_values: Sequence[int],
        *,
        with_default: bool = True,
    ):
        num_regions = len(case_values) + (1 if with_default else 0)
        super().__init__(
            operands=[tag],
            regions=num_regions,
            attributes={
                "case_values": ArrayAttr([IntegerAttr(v) for v in case_values]),
                "has_default": BoolAttr(with_default),
            },
        )
        for region in self.regions:
            region.add_block(Block())

    @property
    def tag(self) -> Value:
        return self.operands[0]

    @property
    def case_values(self) -> List[int]:
        return [a.value for a in self.attributes["case_values"]]

    @property
    def has_default(self) -> bool:
        return self.attributes["has_default"].value

    @property
    def case_regions(self) -> List[Region]:
        n = len(self.attributes["case_values"].elements)
        return list(self.regions[:n])

    def case_block(self, i: int) -> Block:
        return self.case_regions[i].blocks[0]

    @property
    def default_region(self) -> Optional[Region]:
        if self.has_default:
            return self.regions[-1]
        return None

    @property
    def default_block(self) -> Optional[Block]:
        region = self.default_region
        return region.blocks[0] if region is not None else None

    def verify_(self) -> None:
        tag = self.operands[0]
        if not isinstance(tag.type, IntegerType):
            raise ValueError("lp.switch tag must be an integer")
        n_cases = len(self.attributes["case_values"].elements)
        expected = n_cases + (1 if self.has_default else 0)
        if len(self.regions) != expected:
            raise ValueError(
                f"lp.switch expects {expected} regions, found {len(self.regions)}"
            )
        if len(set(self.case_values)) != n_cases:
            raise ValueError("lp.switch case values must be distinct")


@lp_dialect.register_op
class JoinPointOp(Operation):
    """``lp.joinpoint`` — declare a local join point (a non-escaping, named
    local closure) and run a body that may jump to it.

    Region 0 ("after-jump"): the join point's body; its entry block arguments
    are the join parameters.  Region 1 ("pre-jump"): executed first; it
    reaches the join point via ``lp.jump``.
    """

    OP_NAME = "lp.joinpoint"
    TRAITS = frozenset({IsTerminator})

    def __init__(self, label: str, arg_types: Sequence[Type] = ()):
        super().__init__(
            regions=2, attributes={"label": StringAttr(label)}
        )
        body = Block(arg_types)
        self.regions[0].add_block(body)
        self.regions[1].add_block(Block())

    @property
    def label(self) -> str:
        return self.attributes["label"].value

    @property
    def body_region(self) -> Region:
        return self.regions[0]

    @property
    def body_block(self) -> Block:
        return self.regions[0].blocks[0]

    @property
    def pre_block(self) -> Block:
        return self.regions[1].blocks[0]

    @property
    def arg_types(self) -> List[Type]:
        return [a.type for a in self.body_block.arguments]

    def verify_(self) -> None:
        if len(self.regions) != 2:
            raise ValueError("lp.joinpoint expects exactly two regions")
        if not self.regions[0].blocks or not self.regions[1].blocks:
            raise ValueError("lp.joinpoint regions must not be empty")


@lp_dialect.register_op
class JumpOp(Operation):
    """``lp.jump`` — transfer control to an enclosing ``lp.joinpoint`` by
    label, passing the join arguments."""

    OP_NAME = "lp.jump"
    TRAITS = frozenset({IsTerminator})

    def __init__(self, label: str, args: Sequence[Value] = ()):
        super().__init__(operands=args, attributes={"label": StringAttr(label)})

    @property
    def label(self) -> str:
        return self.attributes["label"].value

    @property
    def args(self) -> List[Value]:
        return list(self.operands)

    def find_joinpoint(self) -> Optional[JoinPointOp]:
        """Locate the enclosing ``lp.joinpoint`` this jump targets."""
        op = self.parent_op()
        while op is not None:
            if isinstance(op, JoinPointOp) and op.label == self.label:
                return op
            op = op.parent_op()
        return None

    def verify_(self) -> None:
        target = self.find_joinpoint()
        if target is None:
            raise ValueError(f"lp.jump to unknown join point @{self.label}")
        expected = target.arg_types
        actual = [v.type for v in self.operands]
        if expected != actual:
            raise ValueError(
                f"lp.jump argument types {actual} do not match join point "
                f"parameters {expected}"
            )


#: Runtime functions the lp dialect lowers arithmetic and comparisons to.
RUNTIME_FUNCTIONS = (
    "lean_nat_add",
    "lean_nat_sub",
    "lean_nat_mul",
    "lean_nat_div",
    "lean_nat_mod",
    "lean_nat_dec_eq",
    "lean_nat_dec_lt",
    "lean_nat_dec_le",
    "lean_int_add",
    "lean_int_sub",
    "lean_int_mul",
    "lean_int_div",
    "lean_int_mod",
    "lean_int_dec_eq",
    "lean_int_dec_lt",
    "lean_int_dec_le",
    "lean_int_neg",
    "lean_unbox",
    "lean_box",
    "lean_array_mk",
    "lean_array_get",
    "lean_array_set",
    "lean_array_size",
    "lean_array_push",
    "lean_array_swap",
    "lean_string_mk",
    "lean_string_append",
    "lean_io_println",
)
