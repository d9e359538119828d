"""The LEAN runtime call table.

Every entry models one ``libleanrt`` routine that λrc / the lp dialect lowers
to (``lean_nat_add``, ``lean_nat_dec_eq``, ``lean_array_push``, ...).  The
calling convention matches our simplified λrc ownership discipline: **all
arguments are owned by the callee** and the **result is owned by the
caller**.  Unboxed values (plain ``int``s, see :mod:`repro.runtime.objects`)
are unaffected; heap arguments are released (or reused in place, in the
case of unique arrays) before returning.

Integer results below ``SCALAR_INT_LIMIT`` come back as ``int``s, and
comparisons return the ``Bool`` tags :data:`TRUE` / :data:`FALSE` — ``int``s,
never Python ``bool``s.  The arithmetic and comparison routines take an
int×int fast path first; the :func:`~repro.runtime.objects.int_value` slow
path reads ``BigIntObject`` operands.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .objects import (
    ArrayObject,
    Heap,
    HeapObject,
    RuntimeError_,
    StringObject,
    Value,
    int_value,
)

#: Bool constructor tags (match ``repro.lean.prelude``).
FALSE = 0
TRUE = 1


class RuntimeContext:
    """Holds the heap plus I/O captured by ``lean_io_println``."""

    def __init__(self, heap: Heap = None):
        self.heap = heap if heap is not None else Heap()
        self.output: List[str] = []

    # -- helpers ---------------------------------------------------------------
    def release(self, value: Value) -> None:
        """Release a consumed (owned) argument.

        A shared object's count is lowered here, as :meth:`Heap.dec` would
        lower it (a freed object's count is 0, so it never takes this
        path); the last reference goes through ``Heap.dec``, which frees.
        """
        if value.__class__ is not int and isinstance(value, HeapObject):
            if value.rc > 1:
                value.rc -= 1
                self.heap.stats.dec_ops += 1
            else:
                self.heap.dec(value)

    def bool_value(self, flag: bool) -> int:
        return TRUE if flag else FALSE

    def int_result(self, value: int) -> Value:
        return self.heap.alloc_int(value)


BuiltinImpl = Callable[[RuntimeContext, List[Value]], Value]

BUILTINS: Dict[str, BuiltinImpl] = {}


def builtin(name: str):
    """Register a runtime routine under ``name``."""

    def decorator(fn: BuiltinImpl) -> BuiltinImpl:
        BUILTINS[name] = fn
        return fn

    return decorator


def is_builtin(name: str) -> bool:
    return name in BUILTINS


def call_builtin(ctx: RuntimeContext, name: str, args: List[Value]) -> Value:
    if name not in BUILTINS:
        raise RuntimeError_(f"unknown runtime function {name}")
    return BUILTINS[name](ctx, args)


# ---------------------------------------------------------------------------
# Nat / Int arithmetic
# ---------------------------------------------------------------------------


def _binary_int(ctx: RuntimeContext, args, op, *, truncate_nat: bool) -> Value:
    a, b = args
    if a.__class__ is int and b.__class__ is int:
        result = op(a, b)
    else:
        result = op(int_value(a), int_value(b))
        ctx.release(a)
        ctx.release(b)
    if truncate_nat and result < 0:
        result = 0
    return ctx.heap.alloc_int(result)


def _compare(ctx: RuntimeContext, args, op) -> int:
    a, b = args
    if a.__class__ is int and b.__class__ is int:
        return TRUE if op(a, b) else FALSE
    result = op(int_value(a), int_value(b))
    ctx.release(a)
    ctx.release(b)
    return TRUE if result else FALSE


@builtin("lean_nat_add")
def _nat_add(ctx, args):
    return _binary_int(ctx, args, lambda a, b: a + b, truncate_nat=True)


@builtin("lean_nat_sub")
def _nat_sub(ctx, args):
    return _binary_int(ctx, args, lambda a, b: a - b, truncate_nat=True)


@builtin("lean_nat_mul")
def _nat_mul(ctx, args):
    return _binary_int(ctx, args, lambda a, b: a * b, truncate_nat=True)


# The division operators, shared with the VM's scalar ``rtcall`` closures
# (``SCALAR_RTCALLS`` in ``interp/bytecode.py``) so both compute alike.
def nat_div(a: int, b: int) -> int:
    """``Nat`` division: ``a / 0`` is 0."""
    return a // b if b else 0


def nat_mod(a: int, b: int) -> int:
    """``Nat`` remainder: ``a % 0`` is ``a``."""
    return a % b if b else a


def int_div(a: int, b: int) -> int:
    """``Int`` division truncates towards zero; ``a / 0`` is 0.  Exact at
    any magnitude: integer floor division of the magnitudes, signed."""
    if not b:
        return 0
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


def int_mod(a: int, b: int) -> int:
    """The remainder of :func:`int_div`, with the sign of ``a``; ``a % 0``
    is ``a``."""
    return a - int_div(a, b) * b if b else a


@builtin("lean_nat_div")
def _nat_div(ctx, args):
    return _binary_int(ctx, args, nat_div, truncate_nat=True)


@builtin("lean_nat_mod")
def _nat_mod(ctx, args):
    return _binary_int(ctx, args, nat_mod, truncate_nat=True)


@builtin("lean_int_add")
def _int_add(ctx, args):
    return _binary_int(ctx, args, lambda a, b: a + b, truncate_nat=False)


@builtin("lean_int_sub")
def _int_sub(ctx, args):
    return _binary_int(ctx, args, lambda a, b: a - b, truncate_nat=False)


@builtin("lean_int_mul")
def _int_mul(ctx, args):
    return _binary_int(ctx, args, lambda a, b: a * b, truncate_nat=False)


@builtin("lean_int_div")
def _int_div(ctx, args):
    return _binary_int(ctx, args, int_div, truncate_nat=False)


@builtin("lean_int_mod")
def _int_mod(ctx, args):
    return _binary_int(ctx, args, int_mod, truncate_nat=False)


@builtin("lean_int_neg")
def _int_neg(ctx, args):
    (a,) = args
    result = -int_value(a)
    ctx.release(a)
    return ctx.int_result(result)


@builtin("lean_nat_to_int")
def _nat_to_int(ctx, args):
    (a,) = args
    result = int_value(a)
    ctx.release(a)
    return ctx.int_result(result)


@builtin("lean_int_to_nat")
def _int_to_nat(ctx, args):
    (a,) = args
    result = max(int_value(a), 0)
    ctx.release(a)
    return ctx.int_result(result)


for _name, _op in [
    ("lean_nat_dec_eq", lambda a, b: a == b),
    ("lean_nat_dec_ne", lambda a, b: a != b),
    ("lean_nat_dec_lt", lambda a, b: a < b),
    ("lean_nat_dec_le", lambda a, b: a <= b),
    ("lean_nat_dec_gt", lambda a, b: a > b),
    ("lean_nat_dec_ge", lambda a, b: a >= b),
    ("lean_int_dec_eq", lambda a, b: a == b),
    ("lean_int_dec_ne", lambda a, b: a != b),
    ("lean_int_dec_lt", lambda a, b: a < b),
    ("lean_int_dec_le", lambda a, b: a <= b),
    ("lean_int_dec_gt", lambda a, b: a > b),
    ("lean_int_dec_ge", lambda a, b: a >= b),
]:
    def _make(op):
        def impl(ctx, args):
            return _compare(ctx, args, op)

        return impl

    BUILTINS[_name] = _make(_op)


# ---------------------------------------------------------------------------
# Arrays
# ---------------------------------------------------------------------------


def _expect_array(value: Value) -> ArrayObject:
    if not isinstance(value, ArrayObject):
        raise RuntimeError_(f"expected an array, got {value!r}")
    return value


def _unique_array(ctx: RuntimeContext, array: ArrayObject) -> ArrayObject:
    """Return an array that may be mutated in place.

    When the reference count is one the array is reused (this is what makes
    the ``qsort`` benchmark's updates genuinely in-place); otherwise a copy
    is made and the original released.
    """
    if array.rc == 1:
        return array
    copy = ctx.heap.alloc_array(list(array.items))
    for item in copy.items:
        ctx.heap.inc(item)
    ctx.heap.dec(array)
    return copy


@builtin("lean_array_mk")
def _array_mk(ctx, args):
    return ctx.heap.alloc_array([])


@builtin("lean_array_mk_sized")
def _array_mk_sized(ctx, args):
    size, fill = args
    n = int_value(size)
    ctx.release(size)
    items = []
    for _ in range(n):
        ctx.heap.inc(fill)
        items.append(fill)
    ctx.release(fill)
    return ctx.heap.alloc_array(items)


@builtin("lean_array_push")
def _array_push(ctx, args):
    array, value = args
    array = _unique_array(ctx, _expect_array(array))
    array.items.append(value)
    return array


@builtin("lean_array_get")
def _array_get(ctx, args):
    array, index = args
    array = _expect_array(array)
    i = int_value(index)
    if i < 0 or i >= len(array.items):
        raise RuntimeError_(f"array index {i} out of bounds ({len(array.items)})")
    result = array.items[i]
    if result.__class__ is int:
        ctx.heap.stats.inc_ops += 1
    else:
        ctx.heap.inc(result)
    ctx.release(index)
    ctx.release(array)
    return result


@builtin("lean_array_set")
def _array_set(ctx, args):
    array, index, value = args
    array = _unique_array(ctx, _expect_array(array))
    i = int_value(index)
    if i < 0 or i >= len(array.items):
        raise RuntimeError_(f"array index {i} out of bounds ({len(array.items)})")
    old = array.items[i]
    array.items[i] = value
    ctx.release(old)
    ctx.release(index)
    return array


@builtin("lean_array_size")
def _array_size(ctx, args):
    (array,) = args
    array = _expect_array(array)
    size = len(array.items)
    ctx.release(array)
    return ctx.int_result(size)


@builtin("lean_array_swap")
def _array_swap(ctx, args):
    array, i, j = args
    array = _unique_array(ctx, _expect_array(array))
    a, b = int_value(i), int_value(j)
    n = len(array.items)
    if not (0 <= a < n and 0 <= b < n):
        raise RuntimeError_(f"array swap indices {a}, {b} out of bounds ({n})")
    array.items[a], array.items[b] = array.items[b], array.items[a]
    ctx.release(i)
    ctx.release(j)
    return array


# ---------------------------------------------------------------------------
# Strings and I/O
# ---------------------------------------------------------------------------


@builtin("lean_string_mk")
def _string_mk(ctx, args):
    (value,) = args
    text = value.value if isinstance(value, StringObject) else str(int_value(value))
    ctx.release(value)
    return ctx.heap.alloc_string(text)


@builtin("lean_string_append")
def _string_append(ctx, args):
    a, b = args
    if not isinstance(a, StringObject) or not isinstance(b, StringObject):
        raise RuntimeError_("lean_string_append expects strings")
    result = ctx.heap.alloc_string(a.value + b.value)
    ctx.release(a)
    ctx.release(b)
    return result


@builtin("lean_io_println")
def _io_println(ctx, args):
    (value,) = args
    if isinstance(value, StringObject):
        ctx.output.append(value.value)
    else:
        ctx.output.append(str(int_value(value)))
    ctx.release(value)
    # ``Unit.unit``: a field-less constructor, so its tag.
    return 0
