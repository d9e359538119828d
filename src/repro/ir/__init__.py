"""Mini-MLIR: the SSA+regions IR infrastructure used by the reproduction.

Public surface::

    from repro.ir import (
        Operation, Block, Region, Value, Builder, InsertionPoint,
        IntegerType, FunctionType, BoxType, RegionType,
        IntegerAttr, StringAttr, SymbolRefAttr,
        verify, print_op, parse_module,
    )
"""

from ..lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".attributes": (
        "ArrayAttr", "Attribute", "BoolAttr", "DictAttr", "FloatAttr",
        "IntegerAttr", "StringAttr", "SymbolRefAttr", "TypeAttr", "UnitAttr",
        "int_attr",
    ),
    ".builder": ("Builder", "InsertionPoint"),
    ".core": (
        "Block", "BlockArgument", "IRMapping", "Operation", "OpResult",
        "Region", "Use", "Value",
    ),
    ".dialect": (
        "Dialect", "ensure_dialects_loaded", "lookup_op", "register_op",
        "registered_dialects", "registered_ops",
    ),
    ".dominance": ("DominanceAnalysis", "DominanceInfo", "verify_dominance"),
    ".parser": ("ParseError", "parse_module"),
    ".printer": ("Printer", "print_module", "print_op"),
    ".traits": (
        "Allocates", "ConstantLike", "IsolatedFromAbove", "IsTerminator",
        "NoTerminatorRequired", "Pure", "SingleBlock", "Symbol", "SymbolTable",
        "Trait", "has_trait",
    ),
    ".types": (
        "BoxType", "DialectType", "FloatType", "FunctionType", "IndexType",
        "IntegerType", "NoneType", "RegionType", "Type", "box", "f64", "i1",
        "i8", "i16", "i32", "i64", "index", "none", "parse_type", "region",
    ),
    ".verifier": ("VerificationError", "collect_errors", "verify"),
})
