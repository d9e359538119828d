"""Reference-count insertion: λpure → λrc.

LEAN manages memory with reference counting; λrc extends λpure with explicit
``inc``/``dec`` instructions which the backend lowers to runtime calls
(``lp.inc`` / ``lp.dec`` in the lp dialect).

We implement a simplified *owned-arguments* discipline (a subset of the
Perceus/"Counting Immutable Beans" scheme):

* every function owns one reference to each of its parameters,
* every let binding owns one reference to its bound value,
* expression operands are **consumed** (``ctor``/``call``/``pap``/``app``
  arguments, the returned variable, jump arguments) or **borrowed**
  (``case`` scrutinees, ``proj`` operands — our runtime's projection returns
  the field with its own fresh reference),
* before a consuming use of a variable that is still needed afterwards an
  ``inc`` is inserted; when a variable dies without being consumed a ``dec``
  is inserted,
* join points: the free variables of a join body are treated as live at each
  ``jmp`` to it (they are consumed by the join body, not at the jump site),
  which keeps every control-flow path balanced.

Liveness comes from one backward pass per function
(:func:`~repro.lambda_pure.ir.live_sets`); the insertion walk reads the live
set of each continuation instead of re-walking it.

The naive scheme is deliberately not optimal — the paper's evaluation does
not depend on RC optimisation — but it is *balanced*: the runtime's heap
checker verifies that every program ends with zero live objects and never
double-frees.

Optionally, insertion can consume *borrow signatures* computed by
:mod:`repro.rc_opt.borrow` (a fixpoint over the call graph).  A borrowed
parameter is not owned by the callee: the callee neither releases it nor
counts it among its held references, and callers do not transfer ownership
when passing arguments in borrowed positions — eliminating inc/dec traffic
for parameters that are only inspected (cased / projected).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..lambda_pure.ir import (
    App,
    Call,
    Case,
    CaseAlt,
    Ctor,
    Dec,
    Expr,
    FnBody,
    Function,
    Inc,
    JDecl,
    Jmp,
    Let,
    Lit,
    PAp,
    Program,
    Proj,
    Ret,
    Unreachable,
    live_sets,
)

#: join label -> (params, free variables of the join body)
JoinEnv = Dict[str, Tuple[List[str], Set[str]]]

#: function name -> indices of its borrowed parameters
BorrowSignatures = Dict[str, frozenset]


class RCInserter:
    """Inserts ``inc``/``dec`` instructions into one function."""

    def __init__(
        self,
        live: Dict[int, Set[str]],
        borrow_signatures: Optional[BorrowSignatures] = None,
        borrowed_vars: Optional[Set[str]] = None,
    ):
        #: ``live_sets`` of the function body being rewritten.
        self.live = live
        self.incs_inserted = 0
        self.decs_inserted = 0
        self.borrow_signatures = borrow_signatures or {}
        #: names of the current function's borrowed parameters; these are
        #: never owned anywhere in the body (join bodies included).
        self.borrowed_vars = borrowed_vars or set()

    # -- helpers --------------------------------------------------------------
    def _wrap_incs(self, body: FnBody, variables: List[str]) -> FnBody:
        for var in reversed(variables):
            body = Inc(var, body)
            self.incs_inserted += 1
        return body

    def _wrap_decs(self, body: FnBody, variables: List[str]) -> FnBody:
        for var in sorted(variables, reverse=True):
            body = Dec(var, body)
            self.decs_inserted += 1
        return body

    def _consume(
        self,
        args: List[str],
        live_after: Set[str],
        held: Set[str],
    ) -> List[str]:
        """Handle a sequence of consuming operand occurrences.

        Returns the list of variables to ``inc`` immediately before the
        consuming instruction; updates ``held`` by removing the variables
        whose last reference is handed over.
        """
        incs: List[str] = []
        for index, var in enumerate(args):
            needed_later = var in args[index + 1 :] or var in live_after
            if needed_later or var not in held:
                incs.append(var)
            else:
                held.discard(var)
        return incs

    # -- the insertion walk -------------------------------------------------------
    def visit(self, body: FnBody, held: Set[str], joins: JoinEnv) -> FnBody:
        """Rewrite ``body``, which starts out owning ``held``.  The set
        belongs to this path alone: it is updated in place, and each
        ``case`` branch gets its own copy."""
        if isinstance(body, Ret):
            incs = self._consume([body.var], set(), held)
            dead = [v for v in held]
            return self._wrap_incs(self._wrap_decs(Ret(body.var), dead), incs)

        if isinstance(body, Let):
            return self._visit_let(body, held, joins)

        if isinstance(body, Case):
            new_alts = []
            for alt in body.alts:
                branch_held = set(held)
                branch_live = self.live[id(alt.body)]
                dead = [v for v in branch_held if v not in branch_live]
                for v in dead:
                    branch_held.discard(v)
                new_body = self.visit(alt.body, branch_held, joins)
                new_alts.append(
                    CaseAlt(alt.tag, alt.ctor_name, self._wrap_decs(new_body, dead))
                )
            new_default = None
            if body.default is not None:
                branch_held = set(held)
                branch_live = self.live[id(body.default)]
                dead = [v for v in branch_held if v not in branch_live]
                for v in dead:
                    branch_held.discard(v)
                new_default = self._wrap_decs(
                    self.visit(body.default, branch_held, joins), dead
                )
            return Case(body.var, new_alts, new_default, body.type_name)

        if isinstance(body, JDecl):
            jfree = self.live[id(body.jbody)] - set(body.params)
            new_joins = dict(joins)
            new_joins[body.label] = (body.params, jfree)
            # The join body owns its parameters plus the captured free
            # variables; every jmp arrives holding exactly that set.
            # Borrowed function parameters are excluded: the caller keeps
            # them alive for the whole activation, so neither the jump sites
            # nor the join body ever own (or release) them.
            jbody_held = set(body.params) | (set(jfree) - self.borrowed_vars)
            new_jbody = self.visit(body.jbody, jbody_held, new_joins)
            new_rest = self.visit(body.rest, held, new_joins)
            return JDecl(body.label, body.params, new_jbody, new_rest)

        if isinstance(body, Jmp):
            params, jfree = joins.get(body.label, ([], set()))
            incs = self._consume(list(body.args), set(jfree), held)
            dead = [v for v in held if v not in jfree and v not in body.args]
            return self._wrap_incs(
                self._wrap_decs(Jmp(body.label, list(body.args)), dead), incs
            )

        if isinstance(body, Unreachable):
            return body

        if isinstance(body, (Inc, Dec)):
            raise ValueError("reference counts already inserted")

        raise TypeError(f"unknown FnBody node {body!r}")

    def _visit_let(self, body: Let, held: Set[str], joins: JoinEnv) -> FnBody:
        """Rewrite a ``let`` spine in one loop, then wrap it inside out."""
        spine = []
        while isinstance(body, Let):
            expr = body.expr
            continuation_live = self.live[id(body.body)]
            incs: List[str] = []
            if isinstance(expr, Call):
                borrowed_positions = self.borrow_signatures.get(expr.fn, frozenset())
                consumed = [
                    a for i, a in enumerate(expr.args) if i not in borrowed_positions
                ]
                borrowed_here = {
                    a for i, a in enumerate(expr.args) if i in borrowed_positions
                }
                # A variable passed both owned and borrowed in the same call
                # must survive the ownership transfer (the callee may release
                # the owned reference before its last borrowed use), so treat
                # the borrowed occurrences as live across the call.
                incs = self._consume(consumed, continuation_live | borrowed_here, held)
            elif isinstance(expr, (Ctor, PAp, App)):
                consumed = expr.arg_vars()
                incs = self._consume(consumed, continuation_live, held)
            # Proj and Lit borrow/consume nothing.

            held.add(body.var)
            # Variables (including possibly the new one) that are dead in the
            # continuation are released right after the binding.
            dead = [v for v in held if v not in continuation_live]
            for v in dead:
                held.discard(v)
            spine.append((body, incs, dead))
            body = body.body
        result = self.visit(body, held, joins)
        for let, incs, dead in reversed(spine):
            result = self._wrap_incs(
                Let(let.var, let.expr, self._wrap_decs(result, dead)), incs
            )
        return result


def insert_rc_function(
    fn: Function, borrow_signatures: Optional[BorrowSignatures] = None
) -> Function:
    """Insert reference counting into a single λpure function."""
    borrowed = (borrow_signatures or {}).get(fn.name, frozenset())
    borrowed_names = {p for i, p in enumerate(fn.params) if i in borrowed}
    sets = live_sets(fn.body)
    inserter = RCInserter(sets, borrow_signatures, borrowed_names)
    owned_params = [p for i, p in enumerate(fn.params) if i not in borrowed]
    held = set(owned_params)
    live = sets[id(fn.body)]
    # Owned parameters never used at all must still be released (borrowed
    # parameters stay owned by the caller and are never released here).
    dead_params = [p for p in owned_params if p not in live]
    for p in dead_params:
        held.discard(p)
    body = inserter.visit(fn.body, held, {})
    body = inserter._wrap_decs(body, dead_params)
    return Function(
        fn.name,
        fn.params,
        body,
        fn.borrowed,
        borrowed_params=tuple(sorted(borrowed)),
    )


def insert_rc(
    program: Program, borrow_signatures: Optional[BorrowSignatures] = None
) -> Program:
    """λpure → λrc: insert ``inc``/``dec`` into every function.

    ``borrow_signatures`` (function name → indices of borrowed parameters)
    switches insertion from the naive all-owned discipline to the borrow
    discipline; see :mod:`repro.rc_opt.borrow`.

    Returns a new :class:`Program`; the input is not modified.
    """
    result = Program(constructors=dict(program.constructors), main=program.main)
    for name, fn in program.functions.items():
        result.functions[name] = insert_rc_function(fn, borrow_signatures)
    return result
