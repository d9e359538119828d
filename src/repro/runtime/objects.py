"""The simulated LEAN runtime object model (``libleanrt`` substitute).

LEAN represents values uniformly as ``lean_object*``:

* small integers and field-less constructors are *scalars* — tagged machine
  words (``lean_box``) that are not heap allocated and not reference counted,
* constructor applications, closures, big integers, arrays and strings are
  heap objects with a reference count.

We mirror that split with plain Python ``int``s as the tagged words: an
integer whose absolute value is below :data:`SCALAR_INT_LIMIT` is the
``int`` itself, and a field-less constructor is its tag (a ``Bool`` is the
``int`` ``0`` or ``1``, never a Python ``bool``).  Everything else is a
:class:`HeapObject` on the :class:`Heap`, which tracks allocation
statistics and verifies reference-count balance (no leaks, no double
frees) — the property our differential tests assert.  Hot paths test
``value.__class__ is int`` before any ``isinstance`` check.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Integers with absolute value below this bound are unboxed scalars
#: (LEAN guarantees small naturals are machine words).
SCALAR_INT_LIMIT = 2**62


class RuntimeError_(Exception):
    """Raised by the runtime on invalid operations (double free, bad tag...)."""


class Value:
    """Base class of the boxed runtime values (unboxed ones are ``int``)."""

    __slots__ = ()


class NullToken(Value):
    """The null reuse token: ``reset`` of a shared (or unboxed) value.

    ``reuse`` through a null token falls back to a fresh allocation.
    """

    __slots__ = ()

    def __repr__(self):
        return "NullToken()"


#: The singleton null token (tokens carry no state when dead).
NULL_TOKEN = NullToken()


class HeapObject(Value):
    """Base class of reference-counted heap objects.

    An object is freed exactly when its count reaches 0, so a freed
    object's ``rc`` is 0 and one with a positive count is live: the VM's
    inline ``dec`` and ``RuntimeContext.release`` rely on that to lower a
    count that stays positive without a ``freed`` test.
    """

    __slots__ = ("rc", "freed")

    kind = "object"

    def __init__(self):
        self.rc = 1
        self.freed = False

    def children(self) -> List[Value]:
        """Heap references owned by this object (released on free).

        Subclasses return their stored list, not a copy.
        """
        return []


class CtorObject(HeapObject):
    """A constructor application with at least one field."""

    __slots__ = ("tag", "fields")

    kind = "ctor"

    def __init__(self, tag: int, fields: List[Value]):
        # ``fields`` is adopted, not copied: every caller passes a fresh
        # list.
        self.rc = 1
        self.freed = False
        self.tag = tag
        self.fields = fields

    def children(self) -> List[Value]:
        return self.fields

    def __repr__(self):
        return f"Ctor(tag={self.tag}, fields={len(self.fields)}, rc={self.rc})"


class ClosureObject(HeapObject):
    """A closure: a top-level function plus the arguments captured so far."""

    __slots__ = ("fn_name", "arity", "args")

    kind = "closure"

    def __init__(self, fn_name: str, arity: int, args: List[Value]):
        super().__init__()
        self.fn_name = fn_name
        self.arity = arity
        self.args = list(args)

    def children(self) -> List[Value]:
        return self.args

    @property
    def missing(self) -> int:
        return self.arity - len(self.args)

    def __repr__(self):
        return (
            f"Closure({self.fn_name}, {len(self.args)}/{self.arity}, rc={self.rc})"
        )


class BigIntObject(HeapObject):
    """An arbitrary-precision integer too large to be a scalar."""

    __slots__ = ("value",)

    kind = "bigint"

    def __init__(self, value: int):
        super().__init__()
        self.value = value

    def __repr__(self):
        return f"BigInt({self.value}, rc={self.rc})"


class ArrayObject(HeapObject):
    """LEAN's dynamic array of boxed values."""

    __slots__ = ("items",)

    kind = "array"

    def __init__(self, items: Optional[List[Value]] = None):
        super().__init__()
        self.items = list(items or [])

    def children(self) -> List[Value]:
        return self.items

    def __repr__(self):
        return f"Array(len={len(self.items)}, rc={self.rc})"


class StringObject(HeapObject):
    """An immutable string."""

    __slots__ = ("value",)

    kind = "string"

    def __init__(self, value: str):
        super().__init__()
        self.value = value

    def __repr__(self):
        return f"String({self.value!r}, rc={self.rc})"


class HeapStatistics:
    """Aggregate allocation / reference-counting statistics."""

    __slots__ = (
        "allocations", "frees", "inc_ops", "dec_ops", "peak_live", "resets",
        "reuses",
    )

    def __init__(self):
        self.allocations = 0
        self.frees = 0
        self.inc_ops = 0
        self.dec_ops = 0
        self.peak_live = 0
        self.resets = 0
        self.reuses = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "allocations": self.allocations,
            "frees": self.frees,
            "inc_ops": self.inc_ops,
            "dec_ops": self.dec_ops,
            "peak_live": self.peak_live,
            "resets": self.resets,
            "reuses": self.reuses,
        }


class Heap:
    """Implements reference counting and counts the heap objects.

    The heap keeps no index of its objects: an object is live from its
    allocation to its free, so ``allocations - frees`` is the live count,
    ``peak_live`` is its maximum (taken at each allocation) and the
    balance check is ``allocations == frees``.  The VM's inline
    ``construct`` closures count their allocations the same way.
    """

    def __init__(self):
        self.stats = HeapStatistics()

    # -- allocation --------------------------------------------------------------
    def register(self, obj: HeapObject) -> HeapObject:
        stats = self.stats
        stats.allocations += 1
        live = stats.allocations - stats.frees
        if live > stats.peak_live:
            stats.peak_live = live
        return obj

    def alloc_ctor(self, tag: int, fields: List[Value]) -> Value:
        if not fields:
            return tag
        return self.register(CtorObject(tag, fields))

    def alloc_closure(self, fn_name: str, arity: int, args: List[Value]) -> ClosureObject:
        closure = ClosureObject(fn_name, arity, args)
        return self.register(closure)

    def alloc_int(self, value: int) -> Value:
        if -SCALAR_INT_LIMIT < value < SCALAR_INT_LIMIT:
            return value
        return self.register(BigIntObject(value))

    def alloc_array(self, items: Optional[List[Value]] = None) -> ArrayObject:
        return self.register(ArrayObject(items))

    def alloc_string(self, value: str) -> StringObject:
        return self.register(StringObject(value))

    # -- reference counting -------------------------------------------------------
    def inc(self, value: Value, count: int = 1) -> None:
        self.stats.inc_ops += 1
        if value.__class__ is int:
            return
        if isinstance(value, HeapObject):
            if value.freed:
                raise RuntimeError_("inc of a freed object")
            value.rc += count

    def dec(self, value: Value, count: int = 1) -> None:
        self.stats.dec_ops += 1
        if value.__class__ is int or not isinstance(value, HeapObject):
            return
        if value.freed:
            raise RuntimeError_("dec of a freed object (double free)")
        if value.rc < count:
            raise RuntimeError_(
                f"reference count underflow on {value!r} "
                f"(rc={value.rc}, dec {count})"
            )
        value.rc -= count
        if value.rc == 0:
            self._free(value)

    def _free(self, obj: HeapObject) -> None:
        """Free ``obj`` (at rc 0) and every object whose last reference it
        held."""
        obj.freed = True
        self.stats.frees += 1
        self._drop(obj.fields if obj.__class__ is CtorObject else obj.children())

    def _drop(self, values: List[Value]) -> None:
        """Drop one reference to each of ``values``, freeing every object
        whose last reference that was, and what it alone held.

        An explicit worklist, not recursion: dropping a long constructor
        chain must not depend on Python's recursion limit.
        """
        stats = self.stats
        worklist = [values]
        while worklist:
            for child in worklist.pop():
                if child.__class__ is int or not isinstance(child, HeapObject):
                    continue
                if child.freed:
                    raise RuntimeError_("dec of a freed object (double free)")
                if child.rc < 1:
                    raise RuntimeError_(
                        f"reference count underflow on {child!r} "
                        f"(rc={child.rc}, dec 1)"
                    )
                child.rc -= 1
                if child.rc == 0:
                    child.freed = True
                    stats.frees += 1
                    worklist.append(
                        child.fields if child.__class__ is CtorObject
                        else child.children()
                    )

    # -- constructor reuse (reset/reuse tokens) -----------------------------------
    def reset(self, value: Value) -> Value:
        """Consume one reference to ``value`` and produce a reuse token.

        A uniquely-owned constructor cell releases its fields and becomes a
        live token (the cell stays allocated and is recycled by
        :meth:`reuse`); anything else is decremented as a plain ``dec`` and
        yields the null token.
        """
        self.stats.resets += 1
        if isinstance(value, CtorObject):
            if value.freed:
                raise RuntimeError_("reset of a freed object")
            if value.rc == 1:
                self._drop(value.fields)
                value.fields = []
                return value
        self.dec(value)
        return NULL_TOKEN

    def reuse(self, token: Value, tag: int, fields: List[Value]) -> Value:
        """Construct ``tag(fields)`` through a reuse token.

        A live token is overwritten in place — no allocation is performed;
        the null token falls back to :meth:`alloc_ctor`.  ``fields`` is
        adopted, not copied, as by :class:`CtorObject`.
        """
        if isinstance(token, CtorObject):
            if token.freed or token.rc != 1:
                raise RuntimeError_(f"reuse of an invalid token {token!r}")
            if not fields:
                # Field-less constructors are unboxed: discard the cell.
                self._drop((token,))
                return tag
            token.tag = tag
            token.fields = fields
            self.stats.reuses += 1
            return token
        if not isinstance(token, NullToken):
            raise RuntimeError_(f"reuse through a non-token value {token!r}")
        return self.alloc_ctor(tag, fields)

    # -- diagnostics ----------------------------------------------------------------
    @property
    def live_count(self) -> int:
        return self.stats.allocations - self.stats.frees

    def check_balanced(self) -> None:
        """Raise if any heap object is still live (a leak)."""
        stats = self.stats
        if stats.allocations != stats.frees:
            raise RuntimeError_(
                f"heap leak: {self.live_count} objects still live "
                f"({stats.allocations} allocations, {stats.frees} frees)"
            )


# ---------------------------------------------------------------------------
# Conversions shared by runtime builtins and interpreters
# ---------------------------------------------------------------------------


def int_value(value: Value) -> int:
    """Read the integer stored in a scalar or big-integer value."""
    if value.__class__ is int:
        return value
    if isinstance(value, BigIntObject):
        return value.value
    raise RuntimeError_(f"expected an integer value, got {value!r}")


def tag_of(value: Value) -> int:
    """Read the constructor tag of a value (``lp.getlabel`` semantics)."""
    if value.__class__ is int:
        return value
    if isinstance(value, CtorObject):
        return value.tag
    raise RuntimeError_(f"value {value!r} has no constructor tag")


def python_value(value: Value) -> object:
    """Convert a runtime value into a plain Python value (for tests/reports).

    A constructor cell becomes ``(tag, fields)`` and an array a list.  An
    explicit stack, not recursion: converting a long constructor chain
    must not depend on Python's recursion limit.
    """
    # Frames: (the values left to convert, those converted, the cell's tag
    # or None for an array).  The bottom frame holds ``value`` alone.
    stack = [(iter((value,)), [], None)]
    while stack:
        items, converted, tag = stack[-1]
        for item in items:
            if item.__class__ is int:
                converted.append(item)
            elif isinstance(item, CtorObject):
                stack.append((iter(item.fields), [], item.tag))
                break
            elif isinstance(item, ArrayObject):
                stack.append((iter(item.items), [], None))
                break
            elif isinstance(item, BigIntObject):
                converted.append(item.value)
            elif isinstance(item, StringObject):
                converted.append(item.value)
            elif isinstance(item, ClosureObject):
                converted.append(f"<closure {item.fn_name}>")
            else:
                raise RuntimeError_(f"cannot convert {item!r}")
        else:
            stack.pop()
            if not stack:
                return converted[0]
            stack[-1][1].append(
                converted if tag is None else (tag, tuple(converted))
            )
