"""The builtin dialect: the top-level ``builtin.module`` operation."""

from __future__ import annotations

from typing import Iterator, Optional

from ..ir.attributes import StringAttr
from ..ir.core import Block, Operation, Region
from ..ir.dialect import Dialect
from ..ir.traits import NoTerminatorRequired, SingleBlock, SymbolTable

builtin_dialect = Dialect("builtin")


@builtin_dialect.register_op
class ModuleOp(Operation):
    """Top-level container holding the module's functions.

    The single region has one block whose operations are symbol definitions
    (``func.func``).
    """

    OP_NAME = "builtin.module"
    TRAITS = frozenset({NoTerminatorRequired, SingleBlock, SymbolTable})

    def __init__(self, name: Optional[str] = None):
        attributes = {}
        if name is not None:
            attributes["sym_name"] = StringAttr(name)
        super().__init__(attributes=attributes, regions=1)
        self.regions[0].add_block(Block())

    @property
    def body(self) -> Block:
        return self.regions[0].blocks[0]

    def append(self, op: Operation) -> Operation:
        """Append a symbol-defining operation to the module body."""
        return self.body.append(op)

    def symbols(self) -> Iterator[Operation]:
        """Iterate over the operations defining symbols in this module."""
        for op in self.body:
            if "sym_name" in op.attributes:
                yield op

    def lookup_symbol(self, name: str) -> Optional[Operation]:
        """Find the operation defining symbol ``name`` (function or global)."""
        for op in self.symbols():
            sym = op.attributes.get("sym_name")
            if isinstance(sym, StringAttr) and sym.value == name:
                return op
        return None

    def functions(self):
        """All ``func.func`` operations in the module, in definition order."""
        from .func import FuncOp

        return [op for op in self.body if isinstance(op, FuncOp)]

    def verify_(self) -> None:
        if len(self.regions) != 1:
            raise ValueError("module must have exactly one region")
