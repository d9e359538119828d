"""The simulated LEAN runtime (``libleanrt`` substitute).

* :mod:`repro.runtime.objects` — unboxed values as plain ``int``s, the heap
  objects, and the reference-counted heap with leak/double-free detection,
* :mod:`repro.runtime.closures` — closure creation and extension
  (``lean_apply_n`` semantics),
* :mod:`repro.runtime.builtins` — the runtime call table
  (``lean_nat_add``, ``lean_array_push``, ...).
"""

from ..lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".builtins": (
        "BUILTINS", "FALSE", "TRUE", "RuntimeContext", "call_builtin",
        "is_builtin",
    ),
    ".closures": ("ApplyOutcome", "extend_closure", "make_closure"),
    ".objects": (
        "NULL_TOKEN", "SCALAR_INT_LIMIT", "ArrayObject", "BigIntObject",
        "ClosureObject", "CtorObject", "Heap", "HeapObject", "HeapStatistics",
        "NullToken", "RuntimeError_", "StringObject", "Value", "int_value",
        "python_value", "tag_of",
    ),
})
