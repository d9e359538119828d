"""The λpure simplifier — the baseline optimiser of the LEAN compiler.

The current LEAN backend optimises λpure/λrc with a set of hand-written
passes before emitting C.  We reproduce the ones relevant to the evaluation:

* dead let elimination (pure bindings whose variable is never used),
* copy and constant propagation,
* constant folding of runtime arithmetic/comparison calls on literals,
* ``simp_case``: case-of-known-constructor and projection-of-known-
  constructor (the λrc analogue of the rgn case-elimination optimisation;
  Figure 10's variant (b) disables exactly this pass),
* collapse of case expressions whose branches are structurally identical
  (Record ``==``; the λrc analogue of common-branch elimination),
* dropping join points that are never jumped to, and inlining those that
  are jumped to exactly once.

A round is one rewriting walk, :meth:`Simplifier._simplify`, which does
all of the above; rounds repeat until one rewrites nothing, at most
:data:`MAX_ROUNDS` times per function.  The walk returns each rebuilt body
with its free variables and its jump sites per join label, both built
bottom-up from the children's, so the dead-let test, the dead-join test
and join inlining read what the walk already has instead of walking a
subtree again.

The simplifier is purely λpure-level: it runs before reference-count
insertion, as in LEAN.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..record import Record
from .ir import (
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
    Proj,
    Program,
    Ret,
    Unreachable,
)

#: Runtime calls that are pure and foldable when all arguments are literals.
_FOLDABLE_CALLS = {
    "lean_nat_add": lambda a, b: max(a + b, 0),
    "lean_nat_sub": lambda a, b: max(a - b, 0),
    "lean_nat_mul": lambda a, b: a * b,
    "lean_nat_div": lambda a, b: a // b if b else 0,
    "lean_nat_mod": lambda a, b: a % b if b else a,
    "lean_int_add": lambda a, b: a + b,
    "lean_int_sub": lambda a, b: a - b,
    "lean_int_mul": lambda a, b: a * b,
    "lean_int_neg": lambda a: -a,
}

_FOLDABLE_COMPARISONS = {
    "lean_nat_dec_eq": lambda a, b: a == b,
    "lean_nat_dec_ne": lambda a, b: a != b,
    "lean_nat_dec_lt": lambda a, b: a < b,
    "lean_nat_dec_le": lambda a, b: a <= b,
    "lean_nat_dec_gt": lambda a, b: a > b,
    "lean_nat_dec_ge": lambda a, b: a >= b,
    "lean_int_dec_eq": lambda a, b: a == b,
    "lean_int_dec_ne": lambda a, b: a != b,
    "lean_int_dec_lt": lambda a, b: a < b,
    "lean_int_dec_le": lambda a, b: a <= b,
    "lean_int_dec_gt": lambda a, b: a > b,
    "lean_int_dec_ge": lambda a, b: a >= b,
}

#: Pure runtime calls (safe to remove when dead).
_PURE_RUNTIME_PREFIXES = ("lean_nat_", "lean_int_", "lean_array_", "lean_string_")


def _is_pure_expr(expr: Expr) -> bool:
    """Whether evaluating ``expr`` has no observable effect (so a dead
    binding of it may be dropped).  User function calls are conservatively
    impure (they may diverge); closure application likewise."""
    if isinstance(expr, (Ctor, Proj, Lit, PAp)):
        return True
    if isinstance(expr, Call):
        return expr.fn.startswith(_PURE_RUNTIME_PREFIXES)
    return False


#: Rounds of the rewriting walk per function at most; a round that
#: rewrites nothing ends the loop earlier.
MAX_ROUNDS = 8

#: Where a jump sits in a rebuilt body: the node and the name of the field
#: that holds it, or ``None`` while the jump is the whole body.
Site = Optional[Tuple[Record, str]]
#: The jump sites of a rebuilt body by join label; a list's length is the
#: number of jumps to that label.
Jumps = Dict[str, List[Site]]


class Simplifier:
    """Runs the λpure simplification walk to a (bounded) fixpoint."""

    def __init__(self, *, enable_simp_case: bool = True):
        self.enable_simp_case = enable_simp_case
        #: Rewrites made so far; a round that adds none is the last.
        self.rewrites = 0

    # -- program / function entry points -----------------------------------------
    def run(self, program: Program) -> Program:
        result = Program(constructors=dict(program.constructors), main=program.main)
        for name, fn in program.functions.items():
            result.functions[name] = self.run_on_function(fn)
        return result

    def run_on_function(self, fn: Function) -> Function:
        body = fn.body
        for _ in range(MAX_ROUNDS):
            before = self.rewrites
            body = self._simplify(body, {}, {})[0]
            if self.rewrites == before:
                break
        return Function(fn.name, fn.params, body, fn.borrowed)

    # -- expression-level helpers ---------------------------------------------------
    def _substitute_expr(self, expr: Expr, subst: Dict[str, str]) -> Expr:
        def s(v: str) -> str:
            return subst.get(v, v)

        if isinstance(expr, Ctor):
            return Ctor(expr.tag, [s(a) for a in expr.args], expr.type_name, expr.ctor_name)
        if isinstance(expr, Proj):
            return Proj(expr.index, s(expr.var))
        if isinstance(expr, Call):
            return Call(expr.fn, [s(a) for a in expr.args])
        if isinstance(expr, PAp):
            return PAp(expr.fn, [s(a) for a in expr.args])
        if isinstance(expr, App):
            return App(s(expr.closure), [s(a) for a in expr.args])
        if isinstance(expr, Lit):
            return Lit(expr.value)
        raise TypeError(f"unknown expression {expr!r}")

    def _fold_call(self, expr: Call, bindings: Dict[str, Expr]) -> Optional[Expr]:
        arg_lits = []
        for a in expr.args:
            bound = bindings.get(a)
            if not isinstance(bound, Lit):
                return None
            arg_lits.append(bound.value)
        if expr.fn in _FOLDABLE_CALLS:
            try:
                return Lit(_FOLDABLE_CALLS[expr.fn](*arg_lits))
            except TypeError:
                return None
        if expr.fn in _FOLDABLE_COMPARISONS:
            try:
                result = _FOLDABLE_COMPARISONS[expr.fn](*arg_lits)
            except TypeError:
                return None
            tag = 1 if result else 0
            name = "Bool.true" if result else "Bool.false"
            return Ctor(tag, [], "Bool", name)
        return None

    # -- the rewriting walk ------------------------------------------------------------
    def _simplify(
        self,
        body: FnBody,
        bindings: Dict[str, Expr],
        subst: Dict[str, str],
    ) -> Tuple[FnBody, Set[str], Jumps]:
        """Rewrite ``body``; return it with its free variables and its jumps.

        Both are built bottom-up from the children's as the body is
        rebuilt, so the dead-let test never re-walks a continuation and a
        join point reads its jump count instead of counting.  Each returned
        set and map belongs to the caller, which may update it in place.
        ``bindings`` (variable -> the expression bound to it) and ``subst``
        are scoped by hand: an entry added for a continuation is removed
        again once the continuation is rewritten, so no binding copies
        either map.
        """
        def s(v: str) -> str:
            return subst.get(v, v)

        if isinstance(body, Let):
            expr = self._substitute_expr(body.expr, subst)
            # Copy propagation through redundant projections / folds.
            if isinstance(expr, Call):
                folded = self._fold_call(expr, bindings)
                if folded is not None:
                    self.rewrites += 1
                    expr = folded
            if self.enable_simp_case and isinstance(expr, Proj):
                ctor = bindings.get(expr.var)
                if isinstance(ctor, Ctor) and expr.index < len(ctor.args):
                    # proj i (ctor ... a_i ...)  ==>  a_i  (pure renaming).
                    self.rewrites += 1
                    shadowed = subst.get(body.var)
                    subst[body.var] = ctor.args[expr.index]
                    result = self._simplify(body.body, bindings, subst)
                    _restore(subst, body.var, shadowed)
                    return result
            shadowed = bindings.get(body.var)
            bindings[body.var] = expr
            inner, live, jumps = self._simplify(body.body, bindings, subst)
            _restore(bindings, body.var, shadowed)
            if _is_pure_expr(expr) and body.var not in live:
                self.rewrites += 1
                return inner, live, jumps
            live.discard(body.var)
            live.update(expr.arg_vars())
            live.update(expr.borrowed_vars())
            return _attach(Let(body.var, expr, inner), "body", jumps), live, jumps

        if isinstance(body, Case):
            scrutinee = s(body.var)
            ctor = bindings.get(scrutinee)
            if self.enable_simp_case and isinstance(ctor, Ctor):
                # case of a known constructor: take the matching branch.
                chosen = next(
                    (alt.body for alt in body.alts if alt.tag == ctor.tag),
                    body.default,
                )
                if chosen is not None:
                    self.rewrites += 1
                    return self._simplify(chosen, bindings, subst)
            branches = [alt.body for alt in body.alts]
            if body.default is not None:
                branches.append(body.default)
            results = [self._simplify(b, bindings, subst) for b in branches]
            if len(results) > 1 and all(r[0] == results[0][0] for r in results[1:]):
                # Every branch rewrote to the same body: keep one.
                self.rewrites += 1
                return results[0]
            case = Case(
                scrutinee,
                [CaseAlt(alt.tag, alt.ctor_name, r[0]) for alt, r in zip(body.alts, results)],
                results[-1][0] if body.default is not None else None,
                body.type_name,
            )
            holders = [(alt, "body") for alt in case.alts]
            if case.default is not None:
                holders.append((case, "default"))
            live = {scrutinee}
            jumps: Jumps = {}
            for (holder, field), (_, branch_live, branch_jumps) in zip(holders, results):
                live |= branch_live
                _attach(holder, field, branch_jumps)
                _merge(jumps, branch_jumps)
            return case, live, jumps

        if isinstance(body, Ret):
            var = s(body.var)
            return Ret(var), {var}, {}
        if isinstance(body, Jmp):
            args = [s(a) for a in body.args]
            return Jmp(body.label, args), set(args), {body.label: [None]}
        if isinstance(body, JDecl):
            rest, live, jumps = self._simplify(body.rest, bindings, subst)
            sites = jumps.pop(body.label, [])
            if len(sites) == 1:
                return self._inline_join(body, rest, live, jumps, sites[0], bindings, subst)
            if not sites:
                # The join point is never reached: drop it.
                self.rewrites += 1
                return rest, live, jumps
            jbody, jlive, jjumps = self._simplify(body.jbody, bindings, subst)
            jlive.difference_update(body.params)
            live |= jlive
            decl = JDecl(body.label, body.params, jbody, rest)
            _attach(decl, "rest", jumps)
            _attach(decl, "jbody", jjumps)
            _merge(jumps, jjumps)
            return decl, live, jumps
        if isinstance(body, (Inc, Dec)):
            var = s(body.var)
            inner, live, jumps = self._simplify(body.body, bindings, subst)
            live.add(var)
            return _attach(type(body)(var, inner, body.count), "body", jumps), live, jumps
        if isinstance(body, Unreachable):
            return body, set(), {}
        raise TypeError(f"unknown FnBody {body!r}")

    def _inline_join(
        self,
        decl: JDecl,
        rest: FnBody,
        live: Set[str],
        jumps: Jumps,
        site: Site,
        bindings: Dict[str, Expr],
        subst: Dict[str, str],
    ) -> Tuple[FnBody, Set[str], Jumps]:
        """Finish a join point that its rewritten ``rest`` jumps to once:
        rewrite the join body with its parameters renamed to the jump's
        arguments, and put it where the jump was.

        Labels and variables are fresh per function, so the inlined body
        captures nothing.  ``live`` keeps the jump's arguments, so the
        returned set may name a variable the join body no longer reads;
        the round made a rewrite, so the next one drops such a binding.
        """
        self.rewrites += 1
        jmp = rest if site is None else getattr(*site)
        subst.update(zip(decl.params, jmp.args))
        jbody, jlive, jjumps = self._simplify(decl.jbody, bindings, subst)
        for param in decl.params:
            del subst[param]
        live |= jlive
        if site is None:
            return jbody, live, jjumps
        setattr(*site, jbody)
        _attach(*site, jjumps)
        _merge(jumps, jjumps)
        return rest, live, jumps


def _restore(scope: Dict[str, object], name: str, shadowed: Optional[object]) -> None:
    """Undo ``scope[name] = ...``: put back the entry it shadowed, if any."""
    if shadowed is None:
        del scope[name]
    else:
        scope[name] = shadowed


def _attach(parent: Record, field: str, jumps: Jumps) -> Record:
    """Give the jump in ``parent.field``, if the child there is a bare jump,
    its site (a bare jump's site is ``None``); returns ``parent``."""
    child = getattr(parent, field)
    if child.__class__ is Jmp:
        jumps[child.label] = [(parent, field)]
    return parent


def _merge(jumps: Jumps, more: Jumps) -> None:
    """Add the jump sites of ``more`` to ``jumps``."""
    for label, sites in more.items():
        jumps.setdefault(label, []).extend(sites)


def simplify_program(program: Program, *, enable_simp_case: bool = True) -> Program:
    """Run the λpure simplifier over every function of ``program``.

    Returns a new :class:`Program`; the input is not modified.
    """
    return Simplifier(enable_simp_case=enable_simp_case).run(program)
