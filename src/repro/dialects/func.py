"""The func dialect: functions, calls, returns and module-level globals.

``func.global`` / ``func.get_global`` / ``func.set_global`` model the
closure-slot pattern of the paper (Figure 7): top-level closures such as
``@kslot`` are initialised once by ``@init`` and then loaded wherever a
top-level function is used as a first-class value.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import StringAttr, SymbolRefAttr, TypeAttr
from ..ir.core import Block, Operation, Value
from ..ir.dialect import Dialect
from ..ir.traits import IsolatedFromAbove, IsTerminator, Symbol
from ..ir.types import FunctionType, Type

func_dialect = Dialect("func")


@func_dialect.register_op
class FuncOp(Operation):
    """A global function.

    Attributes:
        ``sym_name``: the function's symbol name.
        ``function_type``: its :class:`FunctionType`.
    The single region's entry block arguments are the function parameters.
    """

    OP_NAME = "func.func"
    TRAITS = frozenset({Symbol, IsolatedFromAbove})

    def __init__(
        self,
        name: str,
        function_type: FunctionType,
        *,
        visibility: str = "public",
        create_entry_block: bool = True,
        arg_names: Optional[Sequence[str]] = None,
    ):
        super().__init__(
            attributes={
                "sym_name": StringAttr(name),
                "function_type": TypeAttr(function_type),
                "sym_visibility": StringAttr(visibility),
            },
            regions=1,
        )
        if create_entry_block:
            self.add_entry_block(arg_names)

    # -- accessors ------------------------------------------------------------
    @property
    def sym_name(self) -> str:
        return self.attributes["sym_name"].value

    @property
    def function_type(self) -> FunctionType:
        attr = self.attributes["function_type"]
        if isinstance(attr, TypeAttr):
            return attr.type
        raise TypeError("function_type attribute is not a TypeAttr")

    @property
    def body(self):
        return self.regions[0]

    @property
    def entry_block(self) -> Optional[Block]:
        return self.body.entry_block

    @property
    def is_declaration(self) -> bool:
        return self.body.empty

    def add_entry_block(self, arg_names: Optional[Sequence[str]] = None) -> Block:
        block = Block()
        for i, t in enumerate(self.function_type.inputs):
            hint = arg_names[i] if arg_names and i < len(arg_names) else f"arg{i}"
            block.add_argument(t, hint)
        self.body.add_block(block)
        return block

    @property
    def arguments(self):
        entry = self.entry_block
        return list(entry.arguments) if entry is not None else []

    def verify_(self) -> None:
        if "sym_name" not in self.attributes:
            raise ValueError("func.func requires a sym_name attribute")
        if "function_type" not in self.attributes:
            raise ValueError("func.func requires a function_type attribute")
        entry = self.entry_block
        if entry is not None:
            expected = list(self.function_type.inputs)
            actual = [a.type for a in entry.arguments]
            if expected != actual:
                raise ValueError(
                    f"entry block argument types {actual} do not match the "
                    f"function signature {expected}"
                )


@func_dialect.register_op
class ReturnOp(Operation):
    """``func.return`` — return zero or more values from the enclosing function."""

    OP_NAME = "func.return"
    TRAITS = frozenset({IsTerminator})

    def __init__(self, operands: Sequence[Value] = ()):
        super().__init__(operands=operands)


@func_dialect.register_op
class CallOp(Operation):
    """``func.call`` — direct (saturated) call of a module-level function.

    The paper lowers both calls to LEAN functions and calls to runtime
    routines (``@lean_nat_add``, ``@lean_nat_dec_eq``, …) to this operation.
    A ``musttail`` unit attribute marks guaranteed tail calls (§III-E).
    """

    OP_NAME = "func.call"

    def __init__(
        self,
        callee: str,
        operands: Sequence[Value],
        result_types: Sequence[Type],
        *,
        musttail: bool = False,
    ):
        attributes = {"callee": SymbolRefAttr(callee)}
        if musttail:
            from ..ir.attributes import UnitAttr

            attributes["musttail"] = UnitAttr()
        super().__init__(
            operands=operands, result_types=result_types, attributes=attributes
        )

    @property
    def callee(self) -> str:
        return self.attributes["callee"].name

    @property
    def is_musttail(self) -> bool:
        return "musttail" in self.attributes

    @property
    def in_tail_position(self) -> bool:
        """Whether the next op returns exactly this call's results."""
        following = self.next_op
        return (
            following is not None
            and following.name in _RETURN_OP_NAMES
            and list(following.operands) == list(self.results)
        )

    def verify_(self) -> None:
        if "callee" not in self.attributes:
            raise ValueError("func.call requires a callee attribute")
        if self.is_musttail and not self.in_tail_position:
            raise ValueError(
                "a musttail call must be followed directly by a return of "
                "exactly its results"
            )


#: The returns a ``musttail`` call may precede: ``func.return`` and the lp
#: dialect's ``lp.return`` (named, so this dialect need not import lp).
_RETURN_OP_NAMES = (ReturnOp.OP_NAME, "lp.return")


@func_dialect.register_op
class GlobalOp(Operation):
    """``func.global`` — a module-level mutable slot (e.g. ``@kslot``)."""

    OP_NAME = "func.global"
    TRAITS = frozenset({Symbol})

    def __init__(self, name: str, type: Type):
        super().__init__(
            attributes={"sym_name": StringAttr(name), "type": TypeAttr(type)}
        )

    @property
    def sym_name(self) -> str:
        return self.attributes["sym_name"].value

    @property
    def global_type(self) -> Type:
        return self.attributes["type"].type


@func_dialect.register_op
class GetGlobalOp(Operation):
    """``func.get_global`` — load the current value of a global slot."""

    OP_NAME = "func.get_global"

    def __init__(self, name: str, result_type: Type):
        super().__init__(
            result_types=[result_type], attributes={"name": SymbolRefAttr(name)}
        )

    @property
    def global_name(self) -> str:
        return self.attributes["name"].name


@func_dialect.register_op
class SetGlobalOp(Operation):
    """``func.set_global`` — store a value into a global slot."""

    OP_NAME = "func.set_global"

    def __init__(self, name: str, value: Value):
        super().__init__(operands=[value], attributes={"name": SymbolRefAttr(name)})

    @property
    def global_name(self) -> str:
        return self.attributes["name"].name
