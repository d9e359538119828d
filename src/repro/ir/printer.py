"""Textual printer for the IR (MLIR-like generic operation form).

The printed form round-trips through :mod:`repro.ir.parser`:

.. code-block:: text

    %2 = "arith.cmpi"(%0, %1) {predicate = "eq"} : (i64, i64) -> i1
    "cf.cond_br"(%c)[^bb1, ^bb2] : (i1) -> ()
    %r = "rgn.val"() ({
    ^bb0:
      "lp.return"(%x) : (!lp.t) -> ()
    }) : () -> !rgn.region
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .core import Block, Operation, Region, Value


class _NameManager:
    """Assigns stable, unique textual names to SSA values and blocks."""

    def __init__(self):
        self.value_names: Dict[Value, str] = {}
        self.block_names: Dict[Block, str] = {}
        self._used: set = set()
        self._next_value = 0
        self._next_block = 0

    def name_value(self, value: Value) -> str:
        if value in self.value_names:
            return self.value_names[value]
        hint = value.name_hint
        if hint:
            # Colliding hints disambiguate with a ``$`` suffix: ``$`` is
            # legal in ``%`` tokens but never appears in codegen hints, so
            # the parser can strip it back off when recovering the hint —
            # which is what keeps parse→print roundtrips byte-identical
            # even after passes erase one of the colliding values.
            name = hint
            suffix = 0
            while name in self._used:
                suffix += 1
                name = f"{hint}${suffix}"
        else:
            name = str(self._next_value)
            self._next_value += 1
            while name in self._used:
                name = str(self._next_value)
                self._next_value += 1
        self._used.add(name)
        self.value_names[value] = name
        return name

    def name_block(self, block: Block) -> str:
        if block not in self.block_names:
            self.block_names[block] = f"bb{self._next_block}"
            self._next_block += 1
        return self.block_names[block]


class Printer:
    """Prints operations, blocks and regions in generic form."""

    def __init__(self, indent_width: int = 2):
        self.indent_width = indent_width
        self.names = _NameManager()

    # -- entry points ----------------------------------------------------------
    def print_op(self, op: Operation, indent: int = 0) -> str:
        lines = self._op_lines(op, indent)
        return "\n".join(lines)

    # -- helpers -----------------------------------------------------------------
    def _ind(self, level: int) -> str:
        return " " * (self.indent_width * level)

    def _op_lines(self, op: Operation, indent: int) -> List[str]:
        prefix = self._ind(indent)
        parts: List[str] = []

        result_names = [f"%{self.names.name_value(r)}" for r in op.results]
        head = ""
        if result_names:
            head += ", ".join(result_names) + " = "
        head += f'"{op.name}"'

        operand_names = [f"%{self.names.name_value(v)}" for v in op.operands]
        head += "(" + ", ".join(operand_names) + ")"

        if op.successors:
            succ_names = [f"^{self.names.name_block(b)}" for b in op.successors]
            head += "[" + ", ".join(succ_names) + "]"

        lines = [prefix + head]
        if op.regions:
            lines[-1] += " ("
            for i, region in enumerate(op.regions):
                region_lines = self._region_lines(region, indent + 1)
                lines[-1] += "{"
                lines.extend(region_lines)
                closer = self._ind(indent) + "}"
                if i + 1 < len(op.regions):
                    closer += ", "
                    lines.append(closer)
                else:
                    lines.append(closer + ")")
        if op.attributes:
            attr_text = ", ".join(
                f"{k} = {v}" for k, v in sorted(op.attributes.items())
            )
            lines[-1] += " {" + attr_text + "}"

        in_types = ", ".join(str(v.type) for v in op.operands)
        if len(op.results) == 1:
            out_types = str(op.results[0].type)
        else:
            out_types = "(" + ", ".join(str(r.type) for r in op.results) + ")"
        lines[-1] += f" : ({in_types}) -> {out_types}"
        parts.extend(lines)
        return parts

    def _region_lines(self, region: Region, indent: int) -> List[str]:
        lines: List[str] = []
        for block in region.blocks:
            label = f"^{self.names.name_block(block)}"
            if block.arguments:
                args = ", ".join(
                    f"%{self.names.name_value(a)}: {a.type}" for a in block.arguments
                )
                label += f"({args})"
            lines.append(self._ind(indent - 1) + label + ":")
            for op in block:
                lines.extend(self._op_lines(op, indent))
        return lines


def print_op(op: Operation) -> str:
    """Print a single operation (and everything nested in it)."""
    return Printer().print_op(op)


def print_module(module: Operation) -> str:
    """Print a module operation followed by a trailing newline."""
    return print_op(module) + "\n"
