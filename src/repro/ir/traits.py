"""Operation traits.

Traits declare structural/semantic properties of operations that generic
passes and the verifier rely on, mirroring MLIR's op traits.
"""

from __future__ import annotations


class Trait:
    """Marker base class; traits are compared by identity of their class."""


class IsTerminator(Trait):
    """The operation must appear last in its block and ends control flow."""


class Pure(Trait):
    """The operation has no side effects; it may be CSE'd and dead-code
    eliminated when its results are unused."""


class ConstantLike(Trait):
    """The operation materialises a compile-time constant."""


class Allocates(Trait):
    """The operation allocates a fresh reference-counted heap object.

    Such operations may be dead-code eliminated (the paired ``dec`` keeps the
    counts balanced) but must not be CSE'd: merging two allocations would
    alias two owned references onto one object and unbalance the reference
    counts."""


class IsolatedFromAbove(Trait):
    """Regions of this op may not reference SSA values defined outside it."""


class NoTerminatorRequired(Trait):
    """Blocks in this op's regions need not end with a terminator
    (e.g. module-level regions)."""


class SingleBlock(Trait):
    """Every region of this op holds exactly one block."""


class SymbolTable(Trait):
    """The op's region defines a symbol table (e.g. ``builtin.module``)."""


class Symbol(Trait):
    """The op defines a symbol via its ``sym_name`` attribute."""


def has_trait(op_or_class, trait) -> bool:
    """Return True if the operation (or operation class) carries ``trait``."""
    traits = getattr(op_or_class, "TRAITS", frozenset())
    return trait in traits
