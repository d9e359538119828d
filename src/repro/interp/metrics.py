"""Deterministic cost model shared by every interpreter.

Native execution is unavailable in this reproduction, so the evaluation
(Figures 9 and 10) compares pipelines by the *cost-weighted number of
executed operations*.  Both backends charge the same costs for the same
dynamic events (an allocation, a runtime call, a branch, ...), which is what
makes the speedup ratios meaningful.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..record import Record

#: Cost charged per dynamic event category.
DEFAULT_COSTS: Dict[str, int] = {
    "arith": 1,          # machine arithmetic / comparison
    "branch": 1,         # conditional or multi-way branch taken
    "jump": 1,           # unconditional jump / join-point jump
    "call": 4,           # direct call of a known function
    "return": 1,
    "runtime_call": 8,   # call into the LEAN runtime (big-int arithmetic, arrays, ...)
    "alloc_ctor": 10,    # heap allocation of a constructor
    "reuse": 3,          # in-place constructor reuse (tag + field stores, no allocator)
    "alloc_closure": 12, # heap allocation of a closure
    "apply": 12,         # closure extension / saturation (lean_apply_n)
    "proj": 2,           # field projection
    "getlabel": 1,       # read a constructor tag
    "rc": 2,             # reference count increment / decrement
    "move": 1,           # register-level move (block-argument passing, literals)
    "const": 0,          # constant materialisation (an immediate in native code)
    "global": 2,         # global slot load/store
}


class ExecutionMetrics(Record):
    """Counters collected while interpreting one program execution."""

    _fields = ("counts", "costs")

    def __init__(
        self,
        counts: Optional[Dict[str, int]] = None,
        costs: Optional[Dict[str, int]] = None,
    ):
        self.counts = {} if counts is None else counts
        self.costs = dict(DEFAULT_COSTS) if costs is None else costs

    def charge(self, category: str, times: int = 1) -> None:
        self.counts[category] = self.counts.get(category, 0) + times

    def total_operations(self) -> int:
        return sum(self.counts.values())

    def total_cost(self) -> int:
        """Cost-weighted operation count (the quantity the figures compare)."""
        return sum(
            self.costs.get(category, 1) * count
            for category, count in self.counts.items()
        )

    def merged_with(self, other: "ExecutionMetrics") -> "ExecutionMetrics":
        merged = ExecutionMetrics(costs=dict(self.costs))
        for source in (self, other):
            for category, count in source.counts.items():
                merged.counts[category] = merged.counts.get(category, 0) + count
        return merged

    def as_dict(self) -> Dict[str, object]:
        return {
            "counts": dict(self.counts),
            "total_operations": self.total_operations(),
            "total_cost": self.total_cost(),
        }


class RunResult(Record):
    """Result of executing a program: final value + metrics + heap report."""

    _fields = ("value", "metrics", "heap_stats", "output")

    def __init__(
        self,
        value: object,
        metrics: ExecutionMetrics,
        heap_stats: Dict[str, int],
        output: List[str],
    ):
        self.value = value
        self.metrics = metrics
        self.heap_stats = heap_stats
        self.output = output
