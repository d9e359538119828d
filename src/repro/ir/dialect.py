"""Dialect and operation registration.

A *dialect* is a named collection of operations (and types).  The registry
maps fully-qualified operation names (``"lp.construct"``) to their Python
classes so that the parser and generic passes can materialise registered
operations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type as PyType

from .core import Operation

_OP_REGISTRY: Dict[str, PyType[Operation]] = {}
_DIALECT_REGISTRY: Dict[str, "Dialect"] = {}


class Dialect:
    """A named namespace of operations."""

    def __init__(self, name: str):
        self.name = name
        self.operations: List[PyType[Operation]] = []
        _DIALECT_REGISTRY[name] = self

    def register_op(self, op_class: PyType[Operation]) -> PyType[Operation]:
        """Register an operation class (usable as a decorator)."""
        op_name = op_class.OP_NAME
        if not op_name.startswith(self.name + ".") and op_name != self.name:
            raise ValueError(
                f"operation {op_name!r} does not belong to dialect {self.name!r}"
            )
        register_op(op_class)
        self.operations.append(op_class)
        return op_class


def register_op(op_class: PyType[Operation]) -> PyType[Operation]:
    """Register ``op_class`` under its ``OP_NAME`` (usable as a decorator)."""
    _OP_REGISTRY[op_class.OP_NAME] = op_class
    return op_class


def lookup_op(name: str) -> Optional[PyType[Operation]]:
    """Return the registered class for ``name``, or None if unregistered."""
    return _OP_REGISTRY.get(name)


def registered_ops() -> Dict[str, PyType[Operation]]:
    return dict(_OP_REGISTRY)


def registered_dialects() -> Dict[str, "Dialect"]:
    return dict(_DIALECT_REGISTRY)


def ensure_dialects_loaded() -> None:
    """Import every dialect module so all operations are registered."""
    from ..dialects import arith, cf, func, lp, rgn  # noqa: F401
