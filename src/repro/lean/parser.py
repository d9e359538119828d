"""Recursive-descent parser for the mini-LEAN surface language.

Layout differences from LEAN4 (documented so programs remain unambiguous
without indentation sensitivity):

* nested ``match`` / ``if`` / ``fun`` / ``let`` used as sub-expressions or as
  match-arm bodies containing further arms must be parenthesised,
* a ``let`` binding may optionally be terminated with ``;`` before its body.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import ast
from .lexer import Token, tokenize


class ParseError(Exception):
    """Raised when the source text is not a valid mini-LEAN program."""


_BINARY_LEVELS = [
    ("||",),
    ("&&",),
    ("==", "!=", "<", "<=", ">", ">="),
    ("+", "-"),
    ("*", "/", "%"),
]

#: Binary operator -> its index in :data:`_BINARY_LEVELS` (higher binds tighter).
_BINARY_PRECEDENCE = {
    op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops
}

#: Keywords that start an atom (and so continue an application).
_ATOM_KEYWORDS = ("true", "false")


class Parser:
    def __init__(self, source: str):
        # The list ends with an EOF token, and only ``expect("EOF")`` moves
        # past it, so every read below indexes the list directly.
        self.tokens = tokenize(source)
        self.index = 0

    # -- token helpers -------------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.tokens[self.index]
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.tokens[self.index]
        if tok.kind == kind and (text is None or tok.text == text):
            self.index += 1
            return tok
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != kind or (text is not None and tok.text != text):
            raise ParseError(
                f"expected {text or kind}, got {tok.text!r} at line {tok.line}"
            )
        self.index += 1
        return tok

    # -- program --------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while not self.at("EOF"):
            if self.at("KEYWORD", "inductive"):
                program.inductives.append(self.parse_inductive())
            elif self.at("KEYWORD", "def") or self.at("KEYWORD", "partial"):
                program.defs.append(self.parse_def())
            else:
                tok = self.peek()
                raise ParseError(
                    f"expected a declaration, got {tok.text!r} at line {tok.line}"
                )
        return program

    # -- declarations ------------------------------------------------------------
    def parse_inductive(self) -> ast.InductiveDecl:
        self.expect("KEYWORD", "inductive")
        name = self.expect("IDENT").text
        self.accept("KEYWORD", "where")
        constructors: List[ast.ConstructorDecl] = []
        while self.accept("PUNCT", "|"):
            ctor_name = self.expect("IDENT").text
            fields: List[Tuple[str, ast.LeanType]] = []
            while self.at("PUNCT", "("):
                self.next()
                field_names = [self.expect("IDENT").text]
                while self.at("IDENT"):
                    field_names.append(self.next().text)
                self.expect("PUNCT", ":")
                field_type = self.parse_type()
                self.expect("PUNCT", ")")
                for fname in field_names:
                    fields.append((fname, field_type))
            constructors.append(ast.ConstructorDecl(ctor_name, fields))
        if not constructors:
            raise ParseError(f"inductive {name} has no constructors")
        return ast.InductiveDecl(name, constructors)

    def parse_def(self) -> ast.DefDecl:
        is_partial = self.accept("KEYWORD", "partial") is not None
        self.expect("KEYWORD", "def")
        name = self.expect("IDENT").text
        params: List[Tuple[str, ast.LeanType]] = []
        while self.at("PUNCT", "("):
            self.next()
            param_names = [self.expect("IDENT").text]
            while self.at("IDENT"):
                param_names.append(self.next().text)
            self.expect("PUNCT", ":")
            param_type = self.parse_type()
            self.expect("PUNCT", ")")
            for pname in param_names:
                params.append((pname, param_type))
        self.expect("PUNCT", ":")
        return_type = self.parse_type()
        self.expect("ARROW", ":=")
        body = self.parse_expr()
        return ast.DefDecl(name, params, return_type, body, is_partial)

    # -- types -----------------------------------------------------------------------
    def parse_type(self) -> ast.LeanType:
        left = self.parse_atom_type()
        if self.accept("ARROW", "->"):
            right = self.parse_type()
            return ast.FunType(left, right)
        return left

    def parse_atom_type(self) -> ast.LeanType:
        if self.accept("PUNCT", "("):
            inner = self.parse_type()
            self.expect("PUNCT", ")")
            return inner
        tok = self.expect("IDENT")
        name = tok.text
        if name == "Nat":
            return ast.NatType()
        if name == "Int":
            return ast.IntType()
        if name == "Bool":
            return ast.BoolType()
        if name == "Unit":
            return ast.UnitType()
        if name == "Array":
            element = self.parse_atom_type()
            return ast.ArrayType(element)
        return ast.DataType(name)

    # -- expressions -------------------------------------------------------------------
    def parse_expr(self) -> ast.Expr:
        tok = self.tokens[self.index]
        if tok.kind == "KEYWORD":
            text = tok.text
            if text == "let":
                return self.parse_let()
            if text == "if":
                return self.parse_if()
            if text == "match":
                return self.parse_match()
            if text == "fun":
                return self.parse_lambda()
        return self.parse_binary(0)

    def parse_let(self) -> ast.Expr:
        """Parse a ``let`` spine: consecutive bindings are read in a loop and
        nested right to left once the body is known."""
        bindings = []
        while self.at("KEYWORD", "let"):
            self.next()
            name = self.expect("IDENT").text
            annotation = None
            if self.accept("PUNCT", ":"):
                annotation = self.parse_type()
            self.expect("ARROW", ":=")
            value = self.parse_expr()
            self.accept("PUNCT", ";")
            self.accept("KEYWORD", "in")
            bindings.append((name, value, annotation))
        body = self.parse_expr()
        for name, value, annotation in reversed(bindings):
            body = ast.Let(name, value, body, annotation)
        return body

    def parse_if(self) -> ast.Expr:
        self.expect("KEYWORD", "if")
        cond = self.parse_expr()
        self.expect("KEYWORD", "then")
        then_branch = self.parse_expr()
        self.expect("KEYWORD", "else")
        else_branch = self.parse_expr()
        return ast.If(cond, then_branch, else_branch)

    def parse_lambda(self) -> ast.Expr:
        self.expect("KEYWORD", "fun")
        params: List[Tuple[str, ast.LeanType]] = []
        while self.at("PUNCT", "("):
            self.next()
            names = [self.expect("IDENT").text]
            while self.at("IDENT"):
                names.append(self.next().text)
            self.expect("PUNCT", ":")
            t = self.parse_type()
            self.expect("PUNCT", ")")
            for n in names:
                params.append((n, t))
        if not params:
            raise ParseError(
                f"lambda parameters must be annotated: (x : T), at line "
                f"{self.peek().line}"
            )
        self.expect("ARROW", "=>")
        body = self.parse_expr()
        return ast.Lambda(params, body)

    def parse_match(self) -> ast.Expr:
        self.expect("KEYWORD", "match")
        scrutinees = [self.parse_expr()]
        while self.accept("PUNCT", ","):
            scrutinees.append(self.parse_expr())
        self.expect("KEYWORD", "with")
        arms: List[ast.MatchArm] = []
        while self.accept("PUNCT", "|"):
            patterns = [self.parse_pattern()]
            while self.accept("PUNCT", ","):
                patterns.append(self.parse_pattern())
            self.expect("ARROW", "=>")
            body = self.parse_expr()
            arms.append(ast.MatchArm(patterns, body))
        if not arms:
            raise ParseError("match expression has no arms")
        if any(len(a.patterns) != len(scrutinees) for a in arms):
            raise ParseError("match arm pattern count does not match scrutinees")
        return ast.Match(scrutinees, arms)

    # -- patterns -------------------------------------------------------------------------
    def parse_pattern(self) -> ast.Pattern:
        return self._parse_pattern(allow_args=True)

    def _parse_pattern(self, allow_args: bool) -> ast.Pattern:
        if self.accept("PUNCT", "("):
            inner = self._parse_pattern(allow_args=True)
            self.expect("PUNCT", ")")
            return inner
        if self.at("NUMBER"):
            return ast.PLit(int(self.next().text))
        if self.at("KEYWORD", "true") or self.at("KEYWORD", "false"):
            return ast.PBool(self.next().text == "true")
        tok = self.expect("IDENT")
        name = tok.text
        if name == "_":
            return ast.PWild()
        if "." in name:
            subpatterns: List[ast.Pattern] = []
            if allow_args:
                while self._at_pattern_start():
                    subpatterns.append(self._parse_pattern(allow_args=False))
            return ast.PCtor(name, subpatterns)
        return ast.PVar(name)

    def _at_pattern_start(self) -> bool:
        if self.at("NUMBER") or self.at("PUNCT", "("):
            return True
        if self.at("KEYWORD", "true") or self.at("KEYWORD", "false"):
            return True
        return self.at("IDENT")

    # -- binary operators --------------------------------------------------------------------
    def parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing: fold operators of level ``min_level`` or
        tighter into a left-associative tree."""
        left = self.parse_unary()
        tokens = self.tokens
        while True:
            tok = tokens[self.index]
            if tok.kind != "OP":
                return left
            level = _BINARY_PRECEDENCE[tok.text]
            if level < min_level:
                return left
            self.index += 1
            left = ast.BinOp(tok.text, left, self.parse_binary(level + 1))

    def parse_unary(self) -> ast.Expr:
        if self.at("OP", "-"):
            self.next()
            if self.at("NUMBER"):
                return ast.IntLit(-int(self.next().text))
            operand = self.parse_unary()
            return ast.UnaryOp("-", operand)
        return self.parse_application()

    # -- application and atoms -----------------------------------------------------------------
    def parse_application(self) -> ast.Expr:
        fn = self.parse_atom()
        args: List[ast.Expr] = []
        while self._at_atom_start():
            args.append(self.parse_atom())
        if args:
            return ast.App(fn, args)
        return fn

    def _at_atom_start(self) -> bool:
        tok = self.tokens[self.index]
        kind = tok.kind
        if kind == "IDENT" or kind == "NUMBER":
            return True
        if kind == "PUNCT":
            return tok.text == "("
        return kind == "KEYWORD" and tok.text in _ATOM_KEYWORDS

    def parse_atom(self) -> ast.Expr:
        tok = self.tokens[self.index]
        kind = tok.kind
        if kind == "IDENT":
            self.index += 1
            return ast.Var(tok.text)
        if kind == "NUMBER":
            self.index += 1
            return ast.NatLit(int(tok.text))
        if kind == "KEYWORD" and tok.text in _ATOM_KEYWORDS:
            self.index += 1
            return ast.BoolLit(tok.text == "true")
        if kind == "PUNCT" and tok.text == "(":
            self.index += 1
            inner = self.parse_expr()
            self.expect("PUNCT", ")")
            return inner
        raise ParseError(
            f"unexpected token {tok.text!r} at line {tok.line}"
        )


def parse_program(source: str) -> ast.Program:
    """Parse a mini-LEAN source file into a surface :class:`~repro.lean.ast.Program`."""
    try:
        return Parser(source).parse_program()
    except RecursionError:
        raise ParseError(
            "the program nests too deeply for the parser "
            "(Python's recursion limit was reached)"
        ) from None


def parse_expression(source: str) -> ast.Expr:
    """Parse a single expression (used by tests and the REPL-style examples)."""
    parser = Parser(source)
    expr = parser.parse_expr()
    parser.expect("EOF")
    return expr
