"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports its submodules' public names would
import every submodule up front, whether or not the caller uses them.
:func:`lazy_exports` instead gives the package a module ``__getattr__``
that imports a submodule the first time one of its names is asked for::

    __getattr__, __all__ = lazy_exports(__name__, {
        ".parser": ("ParseError", "parse_program"),
        ".ast": ("ast",),
    })

``from package import name`` and ``package.name`` both go through it; a
resolved name is stored in the package, so later lookups are plain
attribute reads.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], List[str]]:
    """The ``__getattr__`` and ``__all__`` of ``package``.

    ``exports`` maps a module, relative to ``package``, to the names it
    provides; a name equal to the module's own last component (``".ast"``
    providing ``"ast"``) stands for the module itself.
    """
    source = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module_name = source.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = import_module(module_name, package)
        value = module if module_name.rpartition(".")[2] == name else getattr(module, name)
        namespace[name] = value
        return value

    return __getattr__, list(source)
