"""Perceus-style reference-count optimisation (λrc → λrc).

This subsystem runs between RC insertion and backend lowering and implements
three cooperating analyses in the lineage of LEAN 4's "Counting Immutable
Beans" scheme and Koka's Perceus precise reference counting:

* :mod:`repro.rc_opt.borrow` — per-function borrow signatures via a
  call-graph fixpoint, so parameters that are only inspected are passed
  without inc/dec traffic,
* :mod:`repro.rc_opt.fusion` — intra-procedural dup/drop fusion that cancels
  and merges redundant ``inc``/``dec`` runs on λrc,
* :mod:`repro.rc_opt.reuse` — constructor-reuse analysis that pairs a
  ``dec`` of a dead cell with a same-arity constructor so the runtime can
  recycle the allocation in place (``reset``/``reuse`` tokens),
* :mod:`repro.rc_opt.lp_fusion` — the SSA twin of dup/drop fusion as a pass
  over the lp dialect.

:func:`insert_optimized_rc` is the front door used by the compilation
pipelines: it performs RC insertion at one of three optimisation levels
(``naive`` / ``opt`` / ``opt+reuse``), matching the pipeline ablation
variants ``rc-naive`` / ``rc-opt`` / ``rc-opt+reuse``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..lambda_pure.ir import Program
from ..lambda_rc.refcount import BorrowSignatures, insert_rc
from ..record import Record
from .borrow import (
    borrowed_parameter_count,
    infer_borrow_signatures,
    reuse_critical_params,
)
from .fusion import FusionStats, fuse_rc
from .lp_fusion import LpRcFusionPass
from .reuse import ReuseStats, apply_reuse

#: The RC optimisation levels understood by the pipelines.
RC_MODES = ("naive", "opt", "opt+reuse")


class RcOptReport(Record):
    """What the optimiser did to one program."""

    _fields = ("mode", "borrowed_parameters", "signatures", "fusion", "reuse")

    def __init__(
        self,
        mode: str = "naive",
        borrowed_parameters: int = 0,
        signatures: Optional[BorrowSignatures] = None,
        fusion: Optional[FusionStats] = None,
        reuse: Optional[ReuseStats] = None,
    ):
        self.mode = mode
        self.borrowed_parameters = borrowed_parameters
        self.signatures = {} if signatures is None else signatures
        self.fusion = FusionStats() if fusion is None else fusion
        self.reuse = ReuseStats() if reuse is None else reuse


def insert_optimized_rc(
    pure_program: Program, mode: str = "naive"
) -> Tuple[Program, RcOptReport]:
    """λpure → λrc at the requested optimisation level.

    * ``naive``      — the seed owned-arguments discipline,
    * ``opt``        — borrow inference + dup/drop fusion,
    * ``opt+reuse``  — ``opt`` plus constructor-reuse analysis.
    """
    if mode not in RC_MODES:
        raise ValueError(f"unknown RC optimisation mode {mode!r}")
    report = RcOptReport(mode=mode)
    if mode == "naive":
        return insert_rc(pure_program), report

    keep_owned = reuse_critical_params(pure_program) if mode == "opt+reuse" else None
    signatures = infer_borrow_signatures(pure_program, keep_owned)
    report.signatures = signatures
    report.borrowed_parameters = borrowed_parameter_count(signatures)
    rc_program = insert_rc(pure_program, signatures)
    rc_program, report.fusion = fuse_rc(rc_program)
    if mode == "opt+reuse":
        rc_program, report.reuse = apply_reuse(rc_program)
    return rc_program, report


__all__ = [
    "RC_MODES",
    "RcOptReport",
    "BorrowSignatures",
    "FusionStats",
    "ReuseStats",
    "LpRcFusionPass",
    "apply_reuse",
    "borrowed_parameter_count",
    "fuse_rc",
    "infer_borrow_signatures",
    "insert_optimized_rc",
    "reuse_critical_params",
]
