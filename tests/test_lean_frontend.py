"""Tests for the mini-LEAN frontend: lexer, parser, type checker."""

import pytest

from repro.lean import (
    LexError,
    ParseError,
    TypeError_,
    ast,
    check_program,
    parse_expression,
    parse_program,
    tokenize,
)

LIST_SRC = """
inductive List where
| nil
| cons (head : Nat) (tail : List)

def length (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons h t => 1 + length t
"""


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("def f (x : Nat) : Nat := x + 1")
        kinds = [t.kind for t in tokens]
        assert kinds[0] == "KEYWORD" and tokens[0].text == "def"
        assert "ARROW" in kinds  # :=
        assert kinds[-1] == "EOF"

    def test_qualified_identifier(self):
        tokens = tokenize("List.cons x xs")
        assert tokens[0].text == "List.cons" and tokens[0].kind == "IDENT"

    def test_comments_skipped(self):
        tokens = tokenize("1 -- a comment\n+ 2 /- block\ncomment -/ + 3")
        texts = [t.text for t in tokens if t.kind != "EOF"]
        assert texts == ["1", "+", "2", "+", "3"]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:3]] == [1, 2, 3]

    def test_operators(self):
        texts = [t.text for t in tokenize("a == b && c <= d || e != f")]
        assert "==" in texts and "&&" in texts and "<=" in texts and "||" in texts

    def test_lex_error(self):
        with pytest.raises(LexError):
            tokenize("valid ~ invalid")


class TestParser:
    def test_parse_inductive(self):
        program = parse_program(LIST_SRC)
        ind = program.inductive("List")
        assert ind is not None
        assert [c.name for c in ind.constructors] == ["nil", "cons"]
        assert ind.constructors[1].fields[0][0] == "head"

    def test_parse_def_signature(self):
        program = parse_program(LIST_SRC)
        length = program.definition("length")
        assert length is not None
        assert [t for _, t in length.params] == [ast.DataType("List")]
        assert length.return_type == ast.NatType()

    def test_parse_match_arms(self):
        program = parse_program(LIST_SRC)
        body = program.definition("length").body
        assert isinstance(body, ast.Match)
        assert len(body.arms) == 2
        assert isinstance(body.arms[0].patterns[0], ast.PCtor)

    def test_parse_nested_patterns(self):
        src = LIST_SRC + """
def second (xs : List) : Nat :=
  match xs with
  | List.cons _ (List.cons s _) => s
  | _ => 0
"""
        program = parse_program(src)
        arm = program.definition("second").body.arms[0]
        outer = arm.patterns[0]
        assert isinstance(outer, ast.PCtor)
        assert isinstance(outer.subpatterns[1], ast.PCtor)

    def test_operator_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, ast.BinOp) and expr.op == "+"
        assert isinstance(expr.rhs, ast.BinOp) and expr.rhs.op == "*"

    def test_comparison_and_bool_ops(self):
        expr = parse_expression("a < b && c == d")
        assert expr.op == "&&"
        assert expr.lhs.op == "<" and expr.rhs.op == "=="

    def test_application_binds_tighter_than_operators(self):
        expr = parse_expression("f x + g y")
        assert isinstance(expr, ast.BinOp)
        assert isinstance(expr.lhs, ast.App) and isinstance(expr.rhs, ast.App)

    def test_let_with_semicolon_and_in(self):
        for src in ("let x := 1; x + 1", "let x := 1 in x + 1"):
            expr = parse_expression(src)
            assert isinstance(expr, ast.Let)

    def test_lambda_requires_annotations(self):
        with pytest.raises(ParseError):
            parse_expression("fun x => x")
        lam = parse_expression("fun (x : Nat) => x + 1")
        assert isinstance(lam, ast.Lambda)

    def test_if_then_else(self):
        expr = parse_expression("if a < b then 1 else 2")
        assert isinstance(expr, ast.If)

    def test_negative_literal(self):
        expr = parse_expression("-5")
        assert isinstance(expr, ast.IntLit) and expr.value == -5

    def test_multi_scrutinee_match_arity_check(self):
        with pytest.raises(ParseError):
            parse_program(
                """
def f (x : Nat) (y : Nat) : Nat :=
  match x, y with
  | 0 => 1
"""
            )

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("def f (x : Nat : Nat := x")
        assert "line" in str(excinfo.value)

    def test_match_without_arms_rejected(self):
        with pytest.raises(ParseError):
            parse_program("def f (x : Nat) : Nat :=\n  match x with")

    def test_grouped_parameters(self):
        program = parse_program("def add3 (a b c : Nat) : Nat := a + b + c")
        assert len(program.definition("add3").params) == 3



# Binary operators by precedence level, loosest first; all are left-associative.
_OPERATOR_LEVELS = [
    ("||",),
    ("&&",),
    ("==", "!=", "<", "<=", ">", ">="),
    ("+", "-"),
    ("*", "/", "%"),
]
_OPERATOR_LEVEL = {
    op: level for level, ops in enumerate(_OPERATOR_LEVELS) for op in ops
}


class TestParserPins:
    """Exact parser and lexer output: the AST of every operator pair, error
    texts with their line, and token positions."""

    @pytest.mark.parametrize("op2", sorted(_OPERATOR_LEVEL))
    @pytest.mark.parametrize("op1", sorted(_OPERATOR_LEVEL))
    def test_operator_pair_ast(self, op1, op2):
        a, b, c = ast.Var("a"), ast.Var("b"), ast.Var("c")
        if _OPERATOR_LEVEL[op1] >= _OPERATOR_LEVEL[op2]:
            expected = ast.BinOp(op2, ast.BinOp(op1, a, b), c)
        else:
            expected = ast.BinOp(op1, a, ast.BinOp(op2, b, c))
        assert parse_expression(f"a {op1} b {op2} c") == expected

    def test_unary_minus_and_application(self):
        assert parse_expression("f x - -y * -3") == ast.BinOp(
            "-",
            ast.App(ast.Var("f"), [ast.Var("x")]),
            ast.BinOp("*", ast.UnaryOp("-", ast.Var("y")), ast.IntLit(-3)),
        )

    @pytest.mark.parametrize(
        "source, error, message",
        [
            ("def f (x : Nat) : Nat :=\n  x +\n", ParseError,
             "unexpected token '' at line 3"),
            ("def f (x : Nat) : Nat\n  x", ParseError,
             "expected :=, got 'x' at line 2"),
            ("def f (x : Nat) : Nat :=\n  let y := 1\n  y )", ParseError,
             "unexpected token ')' at line 3"),
            ("inductive T where\ndef f : Nat := 0", ParseError,
             "inductive T has no constructors"),
            ("def f : Nat :=\n  match 1 with\n", ParseError,
             "match expression has no arms"),
            ("def f : Nat :=\n  fun => 1", ParseError,
             "lambda parameters must be annotated: (x : T), at line 2"),
            ("def f : Nat :=\n  if 1 then 2", ParseError,
             "expected else, got '' at line 2"),
            ("foo", ParseError, "expected a declaration, got 'foo' at line 1"),
            ("def f : Nat :=\n  (1 + 2", ParseError,
             "expected ), got '' at line 2"),
            ("def f : Nat :=\n  match 1, 2 with\n  | 1 => 3", ParseError,
             "match arm pattern count does not match scrutinees"),
            ("def f (x : Nat) : Nat :=\n  x $", LexError,
             "unexpected character '$' at line 2"),
        ],
    )
    def test_error_text(self, source, error, message):
        with pytest.raises(error) as info:
            parse_program(source)
        assert str(info.value) == message

    def test_expression_error_text(self):
        with pytest.raises(ParseError) as info:
            parse_expression("1 2 )")
        assert str(info.value) == "expected EOF, got ')' at line 1"

    def test_token_positions_across_comments(self):
        source = (
            "def f (x : Nat) : Nat := -- line comment\n"
            "  /- block\n"
            "  comment -/ x +\n"
            "    /- -/ 1 -- tail\n"
            "-- end\n"
        )
        assert [(t.kind, t.text, t.line, t.column) for t in tokenize(source)] == [
            ("KEYWORD", "def", 1, 1),
            ("IDENT", "f", 1, 5),
            ("PUNCT", "(", 1, 7),
            ("IDENT", "x", 1, 8),
            ("PUNCT", ":", 1, 10),
            ("IDENT", "Nat", 1, 12),
            ("PUNCT", ")", 1, 15),
            ("PUNCT", ":", 1, 17),
            ("IDENT", "Nat", 1, 19),
            ("ARROW", ":=", 1, 23),
            ("IDENT", "x", 3, 14),
            ("OP", "+", 3, 16),
            ("NUMBER", "1", 4, 11),
            ("EOF", "", 6, 1),
        ]

class TestTypeChecker:
    def check(self, src):
        program = parse_program(src)
        return program, check_program(program)

    def test_simple_program_checks(self):
        self.check(LIST_SRC)

    def test_annotates_inferred_types(self):
        program, _ = self.check("def f (x : Nat) : Nat := x + 1")
        body = program.definition("f").body
        assert isinstance(body.inferred_type, ast.NatType)

    def test_literal_adapts_to_int_context(self):
        program, _ = self.check("def f (x : Int) : Int := x + 3")
        body = program.definition("f").body
        assert isinstance(body.rhs.inferred_type, ast.IntType)

    def test_constructor_types(self):
        program, env = self.check(LIST_SRC)
        sig = env.constructor("List.cons")
        assert sig.tag == 1 and sig.arity == 2

    def test_partial_application_types(self):
        self.check(
            """
def k (x : Nat) (y : Nat) : Nat := x
def k10 : Nat -> Nat := k 10
"""
        )

    def test_higher_order_parameter(self):
        self.check(
            """
def twice (f : Nat -> Nat) (x : Nat) : Nat := f (f x)
def main : Nat := twice (fun (v : Nat) => v + 1) 0
"""
        )

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError_):
            self.check("def f (x : Nat) : Bool := x + 1")

    def test_unknown_identifier_rejected(self):
        with pytest.raises(TypeError_):
            self.check("def f (x : Nat) : Nat := y")

    def test_wrong_constructor_type_rejected(self):
        with pytest.raises(TypeError_):
            self.check(
                LIST_SRC
                + """
inductive Tree where
| leaf

def bad (t : Tree) : Nat :=
  match t with
  | List.nil => 0
"""
            )

    def test_wrong_pattern_arity_rejected(self):
        with pytest.raises(TypeError_):
            self.check(
                LIST_SRC
                + """
def bad (xs : List) : Nat :=
  match xs with
  | List.cons h => h
  | List.nil => 0
"""
            )

    def test_over_application_rejected(self):
        with pytest.raises(TypeError_):
            self.check("def f (x : Nat) : Nat := x\ndef g : Nat := f 1 2")

    def test_condition_must_be_bool(self):
        with pytest.raises(TypeError_):
            self.check("def f (x : Nat) : Nat := if x then 1 else 2")

    def test_duplicate_definition_rejected(self):
        with pytest.raises(TypeError_):
            self.check("def f : Nat := 1\ndef f : Nat := 2")

    def test_array_builtins_check(self):
        self.check(
            """
def f (a : Array Nat) : Nat := Array.get (Array.push a 1) 0
"""
        )

    def test_comparison_of_non_numeric_rejected(self):
        with pytest.raises(TypeError_):
            self.check(LIST_SRC + "\ndef f (a : List) (b : List) : Bool := a < b")
