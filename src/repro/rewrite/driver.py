"""Greedy pattern rewrite driver.

Applies a set of :class:`RewritePattern`\\ s to every operation nested under a
root until no pattern applies any more (a fixpoint), mirroring MLIR's
``applyPatternsAndFoldGreedily``.

Two engines implement the fixpoint:

* ``worklist`` (the default) — a genuinely incremental driver in the style of
  MLIR's ``GreedyPatternRewriteDriver``: the worklist is seeded **once** with
  a post-order walk (so nested ops simplify before their parents) and is then
  driven purely off :class:`PatternRewriter` notifications — ops created or
  modified by an application, and the users of replaced values, are requeued;
  nothing else is ever rescanned.  A membership set makes every push O(1) and
  guarantees an op sits in the queue at most once, and the O(1)
  ``Operation.attached`` flag (maintained by ``ir.core``) discards stale
  queue entries without walking the ancestor chain.

* ``rescan`` — the original seed driver, kept as the differential baseline
  for the compile-time benchmarks: each fixpoint iteration re-walks the whole
  module and chases the ancestor chain per candidate, which makes it
  quadratic in module size.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from ..ir.core import Operation
from ..record import Record
from ..resilience.faults import fault_hit
from .pattern import PatternRewriter, RewritePattern

#: The rewrite engines understood by :func:`apply_patterns_greedily`.
ENGINES = ("worklist", "rescan")


class NonConvergenceError(RuntimeError):
    """The driver hit its iteration/rewrite budget before reaching a fixpoint.

    Raised under ``strict=True`` (which the :class:`~repro.rewrite.
    pass_manager.PassManager` enables together with ``verify_each``) so that
    a diverging pattern set fails loudly instead of silently returning
    half-rewritten IR.  This deterministic bound is the only one a fixpoint
    has: the engines read no clock.
    """


class GreedyRewriteResult(Record):
    """Statistics of one driver invocation."""

    _fields = (
        "converged", "iterations", "applications", "match_attempts",
        "worklist_pushes", "requeues_deduped", "prefilter_skips",
        "per_pattern",
    )

    def __init__(
        self,
        converged: bool = True,
        iterations: int = 0,
        applications: int = 0,
        match_attempts: int = 0,
        worklist_pushes: int = 0,
        requeues_deduped: int = 0,
        prefilter_skips: int = 0,
        per_pattern: Optional[Dict[str, int]] = None,
    ):
        self.converged = converged
        #: Fixpoint sweeps for the rescan engine; always 1 for the worklist
        #: engine, which never rescans.
        self.iterations = iterations
        self.applications = applications
        #: Patterns tried, whether or not they matched (the driver's unit
        #: of work; the compile-time benchmarks track this).
        self.match_attempts = match_attempts
        #: Operations enqueued, seeds included — the worklist engine seeds
        #: once and requeues notifications; the rescan engine re-seeds the
        #: whole module every iteration, and every seed is counted.
        self.worklist_pushes = worklist_pushes
        #: Requeue requests dropped because the op was already queued.
        self.requeues_deduped = requeues_deduped
        #: Candidate patterns skipped by the operand-arity prefilter before
        #: any matching work was done (they could never match the op's shape).
        self.prefilter_skips = prefilter_skips
        #: pattern class name -> number of successful applications
        self.per_pattern = {} if per_pattern is None else per_pattern

    def record(self, pattern: RewritePattern) -> None:
        name = type(pattern).__name__
        self.per_pattern[name] = self.per_pattern.get(name, 0) + 1
        self.applications += 1


class PatternSet:
    """Patterns indexed by root op name, ordered by decreasing benefit.

    Building the index once per pass (instead of once per driver call, or
    worse per op) keeps the candidate lookup a dict probe.  On top of the
    name index sits an **operand-arity prefilter**: patterns declaring
    ``num_operands`` / ``min_num_operands`` are skipped outright on ops
    whose operand count can never satisfy them — the skip costs one integer
    compare instead of a match attempt, which is what makes drain seeding
    cheap on ops only variadic patterns care about.
    """

    def __init__(self, patterns: Sequence[RewritePattern]):
        ordered = sorted(patterns, key=lambda p: -p.benefit)
        self._by_name: Dict[str, List[RewritePattern]] = {}
        self._generic: List[RewritePattern] = []
        for p in ordered:
            if p.op_name is None:
                self._generic.append(p)
            else:
                self._by_name.setdefault(p.op_name, []).append(p)

    def candidates(
        self, op: Operation, result: Optional[GreedyRewriteResult] = None
    ) -> Iterable[RewritePattern]:
        """Patterns that might match ``op``, best benefit first.

        Arity-prefiltered candidates are counted on ``result`` (when given)
        instead of being yielded.
        """
        arity = len(op.operands)
        for bucket in (self._by_name.get(op.name, ()), self._generic):
            for pattern in bucket:
                if (
                    pattern.num_operands is not None
                    and pattern.num_operands != arity
                ) or arity < pattern.min_num_operands:
                    if result is not None:
                        result.prefilter_skips += 1
                    continue
                yield pattern


class Worklist:
    """LIFO worklist with an O(1) membership set.

    The membership set is what fixes the duplicate-requeue problem of the
    rescan driver: one application may report the same op several times
    (e.g. an op both produced an operand of and used a result of the erased
    op), but it is only ever queued once.
    """

    __slots__ = ("_stack", "_members")

    def __init__(self):
        self._stack: List[Operation] = []
        self._members: Set[Operation] = set()

    def push(self, op: Operation) -> bool:
        """Queue ``op``; returns False if it was already queued."""
        if op in self._members:
            return False
        self._members.add(op)
        self._stack.append(op)
        return True

    def pop(self) -> Operation:
        op = self._stack.pop()
        self._members.discard(op)
        return op

    def __bool__(self) -> bool:
        return bool(self._stack)

    def __len__(self) -> int:
        return len(self._stack)


def apply_patterns_greedily(
    root: Operation,
    patterns: Union[PatternSet, Sequence[RewritePattern]],
    *,
    max_iterations: int = 64,
    max_rewrites: Optional[int] = None,
    engine: str = "worklist",
    strict: bool = False,
    fault_site: Optional[str] = None,
) -> GreedyRewriteResult:
    """Apply ``patterns`` to every op under ``root`` until fixpoint.

    ``engine`` selects the fixpoint strategy (see the module docstring).
    ``max_rewrites`` bounds total applications for the worklist engine
    (defaulting to ``max_iterations`` times the seed size); ``max_iterations``
    bounds full sweeps for the rescan engine.  Under ``strict=True`` hitting
    either budget raises :class:`NonConvergenceError` instead of returning
    with ``converged=False`` (which historically no caller checked).

    ``fault_site`` names the fault-injection site hit once per successful
    pattern application (the canonicalize pass passes its
    ``pass.canonicalize`` site, giving pattern-granular injection; the raised
    :class:`~repro.resilience.faults.InjectedFault` blames the applied
    pattern).
    """
    pattern_set = (
        patterns if isinstance(patterns, PatternSet) else PatternSet(patterns)
    )
    if engine == "worklist":
        result = _apply_worklist(
            root, pattern_set, max_iterations, max_rewrites, fault_site
        )
    elif engine == "rescan":
        result = _apply_rescan(
            root, pattern_set, max_iterations, max_rewrites, fault_site
        )
    else:
        raise ValueError(f"unknown rewrite engine {engine!r} (expected {ENGINES})")
    if strict and not result.converged:
        raise NonConvergenceError(
            f"pattern rewriting did not converge on {root.name} after "
            f"{result.applications} applications "
            f"({result.iterations} iterations, engine={engine!r})"
        )
    return result


def _blame_pattern(error: BaseException, pattern: RewritePattern) -> None:
    """Tag ``error`` with the pattern it escaped from; the crash bundle's
    manifest records it as ``failing_pattern``."""
    if getattr(error, "failing_pattern", None) is None:
        try:
            error.failing_pattern = type(pattern).__name__
        except Exception:
            pass  # exceptions with __slots__ cannot carry the tag


# -- the worklist engine ----------------------------------------------------------


def _apply_worklist(
    root: Operation,
    pattern_set: PatternSet,
    max_iterations: int,
    max_rewrites: Optional[int],
    fault_site: Optional[str] = None,
) -> GreedyRewriteResult:
    fault_hit("driver.worklist")
    result = GreedyRewriteResult(iterations=1)
    worklist = Worklist()
    seed = [op for op in root.walk_postorder() if op is not root]
    # Push in reverse so that pops come in post-order: nested operations are
    # simplified before the parents that contain them.
    for op in reversed(seed):
        worklist.push(op)
    result.worklist_pushes = len(seed)
    if max_rewrites is None:
        max_rewrites = max_iterations * max(len(seed), 4)

    while worklist:
        op = worklist.pop()
        if not op.attached:
            continue  # erased (or detached) since it was queued
        for pattern in pattern_set.candidates(op, result):
            result.match_attempts += 1
            rewriter = PatternRewriter(op)
            try:
                matched = pattern.match_and_rewrite(op, rewriter)
            except Exception as error:
                _blame_pattern(error, pattern)
                raise
            if not matched:
                continue
            result.record(pattern)
            if fault_site is not None:
                fault_hit(fault_site, pattern=type(pattern).__name__)
            for touched in rewriter.touched:
                if not touched.attached:
                    continue
                if worklist.push(touched):
                    result.worklist_pushes += 1
                else:
                    result.requeues_deduped += 1
            break
        if result.applications >= max_rewrites and worklist:
            result.converged = False
            return result
    result.converged = True
    return result


# -- the rescan engine (differential baseline) ------------------------------------


class _SeedPatternRewriter(PatternRewriter):
    """The seed driver's sparser notification semantics, kept verbatim.

    The seed rewriter did not requeue the users of replaced results nor the
    remaining users of an erased op's operands — its outer rescan loop
    re-walked the whole module anyway, which is exactly the redundancy the
    worklist engine removes.  The rescan baseline keeps the original hooks so
    the differential compile-time comparison measures the real seed driver.
    """

    def notify_op_inserted(self, op) -> None:
        # Seed behaviour: only the op itself, not its nested subtree — the
        # outer rescan loop found nested matches one sweep later.
        self.touched.append(op)
        self.changed = True

    def replace_op(self, op, replacements) -> None:
        if replacements is not None:
            op.replace_all_uses_with(replacements)
            if isinstance(replacements, Operation):
                self.notify_op_modified(replacements)
        self.erase_op(op)

    def erase_op(self, op) -> None:
        for result in op.results:
            if result.has_uses:
                raise ValueError(
                    f"cannot erase {op.name}: result still has uses"
                )
        for operand in op.operands:
            owner = operand.owner_op()
            if owner is not None:
                self.notify_op_modified(owner)
        op.erase()
        self.notify_op_erased(op)


def _is_attached(op: Operation, root: Operation) -> bool:
    """True if ``op`` is still nested under ``root`` (O(depth) ancestor walk,
    kept verbatim as part of the rescan baseline)."""
    current = op
    while current is not None:
        if current is root:
            return True
        current = current.parent_op()
    return False


def _apply_rescan(
    root: Operation,
    pattern_set: PatternSet,
    max_iterations: int,
    max_rewrites: Optional[int],
    fault_site: Optional[str] = None,
) -> GreedyRewriteResult:
    result = GreedyRewriteResult()
    if max_rewrites is None:
        seed_size = sum(1 for _ in root.walk())
        max_rewrites = max_iterations * max(seed_size, 4)
    for iteration in range(max_iterations):
        result.iterations = iteration + 1
        worklist: List[Operation] = list(root.walk())
        # Every iteration re-queues the entire module — that redundancy is
        # the point of keeping this engine as a baseline, so count it.
        result.worklist_pushes += len(worklist) - 1  # root itself is skipped
        changed_this_iteration = False
        index = 0
        while index < len(worklist):
            op = worklist[index]
            index += 1
            if op is root or not _is_attached(op, root):
                continue
            for pattern in pattern_set.candidates(op, result):
                result.match_attempts += 1
                rewriter = _SeedPatternRewriter(op)
                try:
                    matched = pattern.match_and_rewrite(op, rewriter)
                except Exception as error:
                    _blame_pattern(error, pattern)
                    raise
                if matched:
                    result.record(pattern)
                    if fault_site is not None:
                        fault_hit(fault_site, pattern=type(pattern).__name__)
                    changed_this_iteration = True
                    # Faithful to the seed driver: duplicates are appended,
                    # so one op can be re-matched many times per iteration.
                    for touched in rewriter.touched:
                        if _is_attached(touched, root):
                            worklist.append(touched)
                            result.worklist_pushes += 1
                    break
            # Bail only while entries remain: a budget reached exactly at
            # the fixpoint still converges via the following clean sweep.
            if result.applications >= max_rewrites and index < len(worklist):
                result.converged = False
                return result
        if not changed_this_iteration:
            result.converged = True
            return result
    result.converged = False
    return result
