"""IR dialects.

* :mod:`repro.dialects.builtin` — ``builtin.module``.
* :mod:`repro.dialects.func` — functions, calls and returns.
* :mod:`repro.dialects.arith` — integer arithmetic, comparisons, ``select``.
* :mod:`repro.dialects.cf` — flat CFG terminators (``br``/``cond_br``/``switch``).
* :mod:`repro.dialects.lp` — the paper's λpure/λrc SSA encoding (Figure 2).
* :mod:`repro.dialects.rgn` — first-class region values (``rgn.val``/``rgn.run``).
"""

from . import arith, builtin, cf, func, lp, rgn  # noqa: F401

__all__ = ["arith", "builtin", "cf", "func", "lp", "rgn"]
