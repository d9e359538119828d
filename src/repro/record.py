"""Plain data classes without generated code.

A :class:`Record` subclass writes its ``__init__`` by hand and names its
fields in ``_fields``; the base supplies structural ``==`` and ``repr``
over them.  Records are unhashable, since their fields may change.
:class:`FrozenRecord` adds a structural ``__hash__`` and rejects
attribute assignment; its ``__init__`` stores fields through
``object.__setattr__``.

Nothing is generated or ``exec``-ed when a subclass is defined, so a
module full of records imports as fast as one full of plain classes.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Tuple


class Record:
    """Structural ``==`` and ``repr`` over ``_fields``."""

    __slots__ = ()
    #: Field names in constructor order: compared by ``==``, shown by
    #: ``repr``.
    _fields: Tuple[str, ...] = ()
    #: Further fields ``==`` compares but ``repr`` leaves out.
    _hidden: Tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        compared = cls._fields + cls._hidden
        # attrgetter yields a tuple for several fields and the bare value
        # for one; a field-less record compares (and hashes) by its class.
        cls._values = attrgetter(*compared) if compared else attrgetter("__class__")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """An immutable :class:`Record` with a structural ``__hash__``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
