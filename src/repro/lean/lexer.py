"""Lexer for the mini-LEAN surface language."""

from __future__ import annotations

import re
from typing import List

from ..record import Record

KEYWORDS = {
    "inductive",
    "where",
    "def",
    "partial",
    "match",
    "with",
    "let",
    "in",
    "if",
    "then",
    "else",
    "fun",
    "true",
    "false",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<COMMENT>--[^\n]*|/-.*?-/)
  | (?P<WS>\s+)
  | (?P<NUMBER>\d+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_!']*(\.[A-Za-z_][A-Za-z0-9_!']*)*)
  | (?P<ARROW>->|=>|:=)
  | (?P<OP>==|!=|<=|>=|&&|\|\||[+\-*/%<>])
  | (?P<PUNCT>[()\[\]{},:;|_])
    """,
    re.VERBOSE | re.DOTALL,
)


class LexError(Exception):
    """Raised on an unrecognised character."""


class Token(Record):
    _fields = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind  # NUMBER, IDENT, KEYWORD, ARROW, OP, PUNCT, EOF
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self):  # pragma: no cover - debugging helper
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


def tokenize(source: str) -> List[Token]:
    """Tokenise ``source``, dropping comments and whitespace.

    The list always ends with an ``EOF`` token, which the parser uses as a
    sentinel: it never reads past it.
    """
    tokens: List[Token] = []
    append = tokens.append
    match_at = _TOKEN_RE.match
    pos = 0
    end = len(source)
    line = 1
    line_start = 0
    while pos < end:
        match = match_at(source, pos)
        if match is None:
            raise LexError(
                f"unexpected character {source[pos]!r} at line {line}"
            )
        kind = match.lastgroup
        next_pos = match.end()
        if kind == "WS" or kind == "COMMENT":
            # Only whitespace and block comments span lines.
            newlines = source.count("\n", pos, next_pos)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, next_pos) + 1
        else:
            text = match.group()
            if kind == "IDENT" and text in KEYWORDS:
                kind = "KEYWORD"
            append(Token(kind, text, line, pos - line_start + 1))
        pos = next_pos
    append(Token("EOF", "", line, 1))
    return tokens
