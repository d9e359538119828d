"""The simulated LEAN runtime (``libleanrt`` substitute).

* :mod:`repro.runtime.objects` — unboxed values as plain ``int``s, the heap
  objects, and the reference-counted heap with leak/double-free detection,
* :mod:`repro.runtime.closures` — closure creation and extension
  (``lean_apply_n`` semantics),
* :mod:`repro.runtime.builtins` — the runtime call table
  (``lean_nat_add``, ``lean_array_push``, ...).
"""

from .builtins import (
    BUILTINS,
    FALSE,
    TRUE,
    RuntimeContext,
    call_builtin,
    is_builtin,
)
from .closures import ApplyOutcome, extend_closure, make_closure
from .objects import (
    NULL_TOKEN,
    SCALAR_INT_LIMIT,
    ArrayObject,
    BigIntObject,
    ClosureObject,
    CtorObject,
    Heap,
    HeapObject,
    HeapStatistics,
    NullToken,
    RuntimeError_,
    StringObject,
    Value,
    int_value,
    python_value,
    tag_of,
)

__all__ = [
    "BUILTINS",
    "FALSE",
    "TRUE",
    "RuntimeContext",
    "call_builtin",
    "is_builtin",
    "ApplyOutcome",
    "extend_closure",
    "make_closure",
    "NULL_TOKEN",
    "SCALAR_INT_LIMIT",
    "ArrayObject",
    "BigIntObject",
    "ClosureObject",
    "CtorObject",
    "Heap",
    "HeapObject",
    "HeapStatistics",
    "NullToken",
    "RuntimeError_",
    "StringObject",
    "Value",
    "int_value",
    "python_value",
    "tag_of",
]
