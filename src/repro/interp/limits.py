"""Scoped recursion-limit management for the tree-walking interpreters.

Deeply recursive generated programs need more Python stack than the
default ``sys.getrecursionlimit()`` allows.  The engines historically
raised the limit in their constructors and never restored it, so one
interpreter instantiation silently changed process-global state for
everything that ran afterwards (including tests asserting on recursion
behaviour).  :func:`recursion_limit` scopes the raise to one ``run_main``
and restores the previous limit on exit — including when execution
raises.

Only the tree-walkers (``cfg_interp``, ``rc_interp``, ``reference``)
use this module: the bytecode VM runs direct calls, tail calls and
closure application on an explicit frame stack, so VM call depth is
independent of the Python recursion limit and ``interp/bytecode.py``
deliberately has no import of this helper.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator

#: Stack headroom the engines request by default; chosen for the deepest
#: benchmark programs (the red-black tree workloads).
DEFAULT_RECURSION_LIMIT = 200000


@contextmanager
def recursion_limit(limit: int) -> Iterator[None]:
    """Raise ``sys.setrecursionlimit`` to at least ``limit`` for the scope.

    A limit at or below the current one leaves the process untouched; the
    prior limit is restored on exit either way, so nesting and exceptions
    are safe.
    """
    previous = sys.getrecursionlimit()
    if limit > previous:
        sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)
