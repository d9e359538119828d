"""λrc: λpure extended with reference counting (``inc``/``dec``).

The IR node classes are shared with :mod:`repro.lambda_pure`; a program is
"in λrc" once :func:`insert_rc` has run over it.
"""

from ..lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".refcount": (
        "BorrowSignatures", "RCInserter", "insert_rc", "insert_rc_function",
    ),
    "..lambda_pure.ir": ("Dec", "Inc"),
})
