"""The mini-LEAN frontend: lexer, parser, type checker and prelude.

Typical usage::

    from repro.lean import parse_program, check_program

    program = parse_program(source_text)
    env = check_program(program)
"""

from ..lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".ast": ("ast",),
    ".lexer": ("LexError", "Token", "tokenize"),
    ".parser": ("ParseError", "parse_expression", "parse_program"),
    ".prelude": (
        "BOOL_FALSE_TAG", "BOOL_TRUE_TAG", "BUILTIN_FUNCTIONS",
        "BUILTIN_RUNTIME_CALLS", "OPERATOR_RUNTIME_CALLS",
        "builtin_inductives",
    ),
    ".typecheck": ("GlobalEnv", "TypeChecker", "TypeError_", "check_program"),
})
