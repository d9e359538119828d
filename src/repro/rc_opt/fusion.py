"""Dup/drop fusion — cancel and merge redundant ``inc``/``dec`` runs in λrc.

RC insertion (and especially borrow-aware insertion) produces *runs* of
consecutive ``inc``/``dec`` instructions: increments wrapped in front of a
consuming instruction, decrements released at a branch entry or before a
return.  Within one maximal run this pass:

* cancels an ``inc v`` against a *later* ``dec v`` in the same run
  (dup/drop fusion).  Cancelling in that direction is sound: it lowers
  ``v``'s reference count by exactly one between the two instructions, and
  the original program kept a strictly larger count alive over the same
  window, so no free is reordered before a remaining use.  The converse
  (``dec`` before ``inc``) is *not* cancelled — the decrement may free the
  value;
* merges adjacent operations of the same kind on the same variable into one
  instruction with a ``count`` (``inc v; inc v`` → ``inc v, 2``), which the
  runtime executes as a single RC event.

The pass is purely intra-procedural and preserves the heap balance
invariant checked by the runtime.
"""

from __future__ import annotations

from typing import List, Tuple

from ..lambda_pure.ir import (
    Case,
    CaseAlt,
    Dec,
    FnBody,
    Function,
    Inc,
    JDecl,
    Jmp,
    Let,
    Program,
    Ret,
    Unreachable,
)
from ..record import Record


class FusionStats(Record):
    """Counters describing one fusion run."""

    _fields = ("cancelled_pairs", "merged_ops")

    def __init__(self, cancelled_pairs: int = 0, merged_ops: int = 0):
        self.cancelled_pairs = cancelled_pairs
        self.merged_ops = merged_ops

    def merge(self, other: "FusionStats") -> None:
        self.cancelled_pairs += other.cancelled_pairs
        self.merged_ops += other.merged_ops


def _fuse_run(
    events: List[Tuple[str, str, int]], stats: FusionStats
) -> List[Tuple[str, str, int]]:
    """Fuse one maximal run of ``(kind, var, count)`` RC events."""
    counts = [list(event) for event in events]
    # Cancel each dec against the earliest preceding inc of the same variable.
    for index, event in enumerate(counts):
        kind, var, remaining = event
        if kind != "dec":
            continue
        for earlier in counts[:index]:
            if earlier[0] != "inc" or earlier[1] != var:
                continue
            cancelled = min(earlier[2], remaining)
            if cancelled <= 0:
                continue
            earlier[2] -= cancelled
            remaining -= cancelled
            stats.cancelled_pairs += cancelled
            if remaining == 0:
                break
        event[2] = remaining
    survivors = [tuple(event) for event in counts if event[2] > 0]
    # Merge adjacent same-kind operations on the same variable.
    merged: List[Tuple[str, str, int]] = []
    for kind, var, count in survivors:
        if merged and merged[-1][0] == kind and merged[-1][1] == var:
            previous = merged.pop()
            merged.append((kind, var, previous[2] + count))
            stats.merged_ops += 1
        else:
            merged.append((kind, var, count))
    return merged


def _rebuild_run(events: List[Tuple[str, str, int]], tail: FnBody) -> FnBody:
    body = tail
    for kind, var, count in reversed(events):
        body = Inc(var, body, count) if kind == "inc" else Dec(var, body, count)
    return body


def fuse_body(body: FnBody, stats: FusionStats) -> FnBody:
    if isinstance(body, (Inc, Dec)):
        events: List[Tuple[str, str, int]] = []
        current = body
        while isinstance(current, (Inc, Dec)):
            kind = "inc" if isinstance(current, Inc) else "dec"
            events.append((kind, current.var, current.count))
            current = current.body
        tail = fuse_body(current, stats)
        return _rebuild_run(_fuse_run(events, stats), tail)
    if isinstance(body, Let):
        return Let(body.var, body.expr, fuse_body(body.body, stats))
    if isinstance(body, Case):
        alts = [
            CaseAlt(alt.tag, alt.ctor_name, fuse_body(alt.body, stats))
            for alt in body.alts
        ]
        default = (
            fuse_body(body.default, stats) if body.default is not None else None
        )
        return Case(body.var, alts, default, body.type_name)
    if isinstance(body, JDecl):
        return JDecl(
            body.label,
            body.params,
            fuse_body(body.jbody, stats),
            fuse_body(body.rest, stats),
        )
    if isinstance(body, (Ret, Jmp, Unreachable)):
        return body
    raise TypeError(f"unknown FnBody node {body!r}")


def fuse_function(fn: Function, stats: FusionStats) -> Function:
    return Function(
        fn.name,
        fn.params,
        fuse_body(fn.body, stats),
        fn.borrowed,
        borrowed_params=fn.borrowed_params,
    )


def fuse_rc(program: Program) -> Tuple[Program, FusionStats]:
    """Fuse inc/dec runs in every function; returns a new program + stats.

    The input is not modified.
    """
    stats = FusionStats()
    result = Program(constructors=dict(program.constructors), main=program.main)
    for name, fn in program.functions.items():
        result.functions[name] = fuse_function(fn, stats)
    return result, stats
