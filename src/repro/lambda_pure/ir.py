"""λpure / λrc — LEAN's functional intermediate representations.

λpure is a minimal, pure, strict, higher-order IR in A-normal form: every
operand is a variable, and function bodies are trees built from ``let``,
``case``, join-point declarations, jumps and returns.  λrc extends λpure with
the reference-counting instructions ``inc`` and ``dec``; we represent both in
the same node classes (a program is "in λrc" once RC insertion has run).

The design follows the paper (§III) and LEAN4's compiler IR:

Expressions (right-hand sides of ``let``):
    * :class:`Ctor` — construct a tagged value,
    * :class:`Proj` — project a constructor field,
    * :class:`Call` — saturated call of a known top-level function,
    * :class:`PAp` — partial application (closure creation),
    * :class:`App` — apply a closure to further arguments,
    * :class:`Lit` — machine integer or big integer literal.

Function bodies:
    * :class:`Let`, :class:`Case`, :class:`Ret`,
    * :class:`JDecl` / :class:`Jmp` — join points,
    * :class:`Inc` / :class:`Dec` — reference counting (λrc),
    * :class:`Unreachable`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..record import Record

#: Threshold above which integer literals are treated as big integers
#: (mirrors LEAN's boxing of naturals that do not fit in a machine word).
MACHINE_INT_LIMIT = 2**62


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Record):
    """Base class of λpure expressions (always in A-normal form)."""

    def arg_vars(self) -> List[str]:
        """Variables consumed (ownership transferred) by this expression."""
        return []

    def borrowed_vars(self) -> List[str]:
        """Variables inspected but not consumed by this expression."""
        return []

    def free_vars(self) -> Set[str]:
        return set(self.arg_vars()) | set(self.borrowed_vars())


class Ctor(Expr):
    """``ctor_tag(args)`` — build a data constructor value."""

    _fields = ("tag", "args", "type_name", "ctor_name")

    def __init__(
        self,
        tag: int,
        args: Optional[List[str]] = None,
        type_name: str = "",
        ctor_name: str = "",
    ):
        self.tag = tag
        self.args = [] if args is None else args
        self.type_name = type_name
        self.ctor_name = ctor_name

    def arg_vars(self) -> List[str]:
        return list(self.args)

    def __str__(self):
        name = self.ctor_name or f"ctor_{self.tag}"
        return f"{name}({', '.join(self.args)})"


class Proj(Expr):
    """``proj_index(var)`` — extract a constructor field (borrows ``var``)."""

    _fields = ("index", "var")

    def __init__(self, index: int, var: str):
        self.index = index
        self.var = var

    def borrowed_vars(self) -> List[str]:
        return [self.var]

    def __str__(self):
        return f"proj_{self.index} {self.var}"


class Call(Expr):
    """``call fn(args)`` — saturated call of a known function or runtime
    builtin."""

    _fields = ("fn", "args")

    def __init__(self, fn: str, args: Optional[List[str]] = None):
        self.fn = fn
        self.args = [] if args is None else args

    def arg_vars(self) -> List[str]:
        return list(self.args)

    def __str__(self):
        return f"{self.fn}({', '.join(self.args)})"


class PAp(Expr):
    """``pap fn(args)`` — create a closure holding ``args`` for ``fn``."""

    _fields = ("fn", "args")

    def __init__(self, fn: str, args: Optional[List[str]] = None):
        self.fn = fn
        self.args = [] if args is None else args

    def arg_vars(self) -> List[str]:
        return list(self.args)

    def __str__(self):
        return f"pap {self.fn}({', '.join(self.args)})"


class App(Expr):
    """``app closure(args)`` — apply a closure to further arguments."""

    _fields = ("closure", "args")

    def __init__(self, closure: str, args: Optional[List[str]] = None):
        self.closure = closure
        self.args = [] if args is None else args

    def arg_vars(self) -> List[str]:
        return [self.closure, *self.args]

    def __str__(self):
        return f"app {self.closure}({', '.join(self.args)})"


class Lit(Expr):
    """Integer literal (machine word or big integer)."""

    _fields = ("value",)

    def __init__(self, value: int):
        self.value = value

    @property
    def is_big(self) -> bool:
        return abs(self.value) >= MACHINE_INT_LIMIT

    def __str__(self):
        return str(self.value)


class Reset(Expr):
    """``reset var`` — consume a (statically dead) constructor cell and yield
    a *reuse token* (λrc reuse analysis, after Perceus / "Counting Immutable
    Beans").

    At runtime: if the cell is uniquely referenced its fields are released
    and the cell itself is returned for in-place reuse; otherwise the
    reference is dropped and a null token is returned.
    """

    _fields = ("var",)

    def __init__(self, var: str):
        self.var = var

    def arg_vars(self) -> List[str]:
        return [self.var]

    def __str__(self):
        return f"reset {self.var}"


class Reuse(Expr):
    """``reuse token in ctor_tag(args)`` — construct a value, reusing the
    memory cell held by ``token`` when it is live (same-arity reuse)."""

    _fields = ("token", "tag", "args", "type_name", "ctor_name")

    def __init__(
        self,
        token: str,
        tag: int,
        args: Optional[List[str]] = None,
        type_name: str = "",
        ctor_name: str = "",
    ):
        self.token = token
        self.tag = tag
        self.args = [] if args is None else args
        self.type_name = type_name
        self.ctor_name = ctor_name

    def arg_vars(self) -> List[str]:
        return [self.token, *self.args]

    def __str__(self):
        name = self.ctor_name or f"ctor_{self.tag}"
        return f"reuse {self.token} in {name}({', '.join(self.args)})"


# ---------------------------------------------------------------------------
# Function bodies
# ---------------------------------------------------------------------------


class FnBody(Record):
    """Base class of λpure function bodies."""


class Let(FnBody):
    """``let var := expr; body``."""

    _fields = ("var", "expr", "body")

    def __init__(self, var: str, expr: Expr, body: FnBody):
        self.var = var
        self.expr = expr
        self.body = body

    def __str__(self):
        return f"let {self.var} := {self.expr};\n{self.body}"


class CaseAlt(Record):
    """One alternative of a :class:`Case`: constructor tag → body."""

    _fields = ("tag", "ctor_name", "body")

    def __init__(self, tag: int, ctor_name: str, body: FnBody):
        self.tag = tag
        self.ctor_name = ctor_name
        self.body = body


class Case(FnBody):
    """``case var of alts [| default]`` — dispatch on a constructor tag.

    The scrutinee is *borrowed* (not consumed); branches project fields out
    of it as needed.
    """

    _fields = ("var", "alts", "default", "type_name")

    def __init__(
        self,
        var: str,
        alts: Optional[List[CaseAlt]] = None,
        default: Optional[FnBody] = None,
        type_name: str = "",
    ):
        self.var = var
        self.alts = [] if alts is None else alts
        self.default = default
        self.type_name = type_name

    def __str__(self):
        parts = [f"case {self.var} of"]
        for alt in self.alts:
            parts.append(f"| {alt.ctor_name or alt.tag} =>\n{alt.body}")
        if self.default is not None:
            parts.append(f"| _ =>\n{self.default}")
        return "\n".join(parts)


class Ret(FnBody):
    """``ret var`` — return from the enclosing function."""

    _fields = ("var",)

    def __init__(self, var: str):
        self.var = var

    def __str__(self):
        return f"ret {self.var}"


class JDecl(FnBody):
    """``jdecl label(params) := jbody; rest`` — declare a join point."""

    _fields = ("label", "params", "jbody", "rest")

    def __init__(
        self,
        label: str,
        params: List[str],
        jbody: FnBody,
        rest: FnBody,
    ):
        self.label = label
        self.params = params
        self.jbody = jbody
        self.rest = rest

    def __str__(self):
        return (
            f"jdecl {self.label}({', '.join(self.params)}) :=\n"
            f"{self.jbody};\n{self.rest}"
        )


class Jmp(FnBody):
    """``jmp label(args)`` — jump to an enclosing join point."""

    _fields = ("label", "args")

    def __init__(self, label: str, args: Optional[List[str]] = None):
        self.label = label
        self.args = [] if args is None else args

    def __str__(self):
        return f"jmp {self.label}({', '.join(self.args)})"


class Inc(FnBody):
    """``inc var; body`` — λrc reference count increment."""

    _fields = ("var", "body", "count")

    def __init__(self, var: str, body: FnBody, count: int = 1):
        self.var = var
        self.body = body
        self.count = count

    def __str__(self):
        return f"inc {self.var};\n{self.body}"


class Dec(FnBody):
    """``dec var; body`` — λrc reference count decrement."""

    _fields = ("var", "body", "count")

    def __init__(self, var: str, body: FnBody, count: int = 1):
        self.var = var
        self.body = body
        self.count = count

    def __str__(self):
        return f"dec {self.var};\n{self.body}"


class Unreachable(FnBody):
    """Statically impossible program point (e.g. empty match)."""

    def __str__(self):
        return "unreachable"


# ---------------------------------------------------------------------------
# Functions and programs
# ---------------------------------------------------------------------------


class Function(Record):
    """A top-level λpure/λrc function."""

    _fields = ("name", "params", "body", "borrowed", "borrowed_params")

    def __init__(
        self,
        name: str,
        params: List[str],
        body: FnBody,
        borrowed: int = 0,
        borrowed_params: Tuple[int, ...] = (),
    ):
        self.name = name
        self.params = params
        self.body = body
        #: number of leading parameters that are borrowed (not consumed);
        #: our simplified RC scheme treats all parameters as owned, so this
        #: is 0.
        self.borrowed = borrowed
        #: indices of parameters passed *borrowed* (no ownership transfer),
        #: as computed by :mod:`repro.rc_opt.borrow`; empty under the naive
        #: scheme.
        self.borrowed_params = borrowed_params

    @property
    def arity(self) -> int:
        return len(self.params)

    def __str__(self):
        return f"def {self.name}({', '.join(self.params)}) :=\n{self.body}"


class ConstructorInfo(Record):
    """Metadata about one constructor of an inductive type."""

    _fields = ("type_name", "ctor_name", "tag", "arity")

    def __init__(self, type_name: str, ctor_name: str, tag: int, arity: int):
        self.type_name = type_name
        self.ctor_name = ctor_name
        self.tag = tag
        self.arity = arity


class Program(Record):
    """A λpure/λrc program: functions plus inductive-type metadata."""

    _fields = ("functions", "constructors", "main")

    def __init__(
        self,
        functions: Optional[Dict[str, Function]] = None,
        constructors: Optional[Dict[str, ConstructorInfo]] = None,
        main: str = "main",
    ):
        self.functions = {} if functions is None else functions
        self.constructors = {} if constructors is None else constructors
        self.main = main

    def add_function(self, fn: Function) -> None:
        self.functions[fn.name] = fn

    def constructor(self, qualified_name: str) -> ConstructorInfo:
        return self.constructors[qualified_name]

    def arity_of(self, fn_name: str) -> Optional[int]:
        fn = self.functions.get(fn_name)
        return fn.arity if fn is not None else None

    def __str__(self):
        return "\n\n".join(str(f) for f in self.functions.values())


# ---------------------------------------------------------------------------
# Analyses shared by the simplifier and the RC inserter
# ---------------------------------------------------------------------------


def free_vars(body: FnBody, join_env: Optional[Dict[str, Tuple[List[str], Set[str]]]] = None) -> Set[str]:
    """Free variables of a function body, by a direct recursive walk.

    The compiler reads liveness from :func:`live_sets`, which computes this
    set for every node of a body in one pass; this function is the
    specification that pass is tested against.

    ``join_env`` maps join labels to ``(params, free_vars_of_join_body)``;
    a ``jmp`` then contributes the join body's free variables as well, which
    is what makes liveness (and therefore RC insertion) correct across join
    points.
    """
    join_env = join_env if join_env is not None else {}

    if isinstance(body, Let):
        inner = free_vars(body.body, join_env) - {body.var}
        return set(body.expr.free_vars()) | inner
    if isinstance(body, Case):
        result = {body.var}
        for alt in body.alts:
            result |= free_vars(alt.body, join_env)
        if body.default is not None:
            result |= free_vars(body.default, join_env)
        return result
    if isinstance(body, Ret):
        return {body.var}
    if isinstance(body, JDecl):
        jfree = free_vars(body.jbody, join_env) - set(body.params)
        extended = dict(join_env)
        extended[body.label] = (body.params, jfree)
        return jfree | free_vars(body.rest, extended)
    if isinstance(body, Jmp):
        result = set(body.args)
        if body.label in join_env:
            result |= join_env[body.label][1]
        return result
    if isinstance(body, (Inc, Dec)):
        return {body.var} | free_vars(body.body, join_env)
    if isinstance(body, Unreachable):
        return set()
    raise TypeError(f"unknown FnBody node: {body!r}")


def live_sets(body: FnBody) -> Dict[int, Set[str]]:
    """Backward liveness over one function body, in a single pass.

    Returns ``id(node) -> live set`` for every node of ``body``: the
    variables the node and everything after it read, which is exactly
    ``free_vars(node, join_env)`` under the join points declared around it.
    A chain of ``let``/``inc``/``dec`` is walked in a loop, so a long spine
    costs one set per binding and no recursion; only ``case`` alternatives
    and join points recurse.  The sets are shared with the caller and must
    not be mutated.
    """
    sets: Dict[int, Set[str]] = {}

    def visit(node: FnBody, join_env: Dict[str, Set[str]]) -> Set[str]:
        chain = []
        while isinstance(node, (Let, Inc, Dec)):
            chain.append(node)
            node = node.body
        if isinstance(node, Ret):
            live = {node.var}
        elif isinstance(node, Case):
            live = {node.var}
            for alt in node.alts:
                live |= visit(alt.body, join_env)
            if node.default is not None:
                live |= visit(node.default, join_env)
        elif isinstance(node, Jmp):
            live = set(node.args)
            jfree = join_env.get(node.label)
            if jfree is not None:
                live |= jfree
        elif isinstance(node, JDecl):
            jfree = visit(node.jbody, join_env) - set(node.params)
            live = jfree | visit(node.rest, {**join_env, node.label: jfree})
        elif isinstance(node, Unreachable):
            live = set()
        else:
            raise TypeError(f"unknown FnBody node: {node!r}")
        sets[id(node)] = live
        for link in reversed(chain):
            if isinstance(link, Let):
                live = (live - {link.var}) | link.expr.free_vars()
            else:
                live = live | {link.var}
            sets[id(link)] = live
        return live

    visit(body, {})
    return sets


def body_size(body: FnBody) -> int:
    """Number of nodes in a function body (used by inlining heuristics)."""
    if isinstance(body, Let):
        return 1 + body_size(body.body)
    if isinstance(body, Case):
        total = 1 + sum(body_size(a.body) for a in body.alts)
        if body.default is not None:
            total += body_size(body.default)
        return total
    if isinstance(body, JDecl):
        return 1 + body_size(body.jbody) + body_size(body.rest)
    if isinstance(body, (Inc, Dec)):
        return 1 + body_size(body.body)
    return 1


def count_jumps(body: FnBody, label: str) -> int:
    """Number of ``jmp`` nodes targeting ``label`` inside ``body``."""
    if isinstance(body, Jmp):
        return 1 if body.label == label else 0
    if isinstance(body, Let):
        return count_jumps(body.body, label)
    if isinstance(body, Case):
        total = sum(count_jumps(a.body, label) for a in body.alts)
        if body.default is not None:
            total += count_jumps(body.default, label)
        return total
    if isinstance(body, JDecl):
        if body.label == label:
            # Shadowed: jumps inside refer to the inner declaration.
            return count_jumps(body.rest, label) if body.label != label else 0
        return count_jumps(body.jbody, label) + count_jumps(body.rest, label)
    if isinstance(body, (Inc, Dec)):
        return count_jumps(body.body, label)
    return 0
