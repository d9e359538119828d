"""λpure: LEAN's pure functional IR, its lowering from the surface language
and the baseline simplifier."""

from ..lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".ir": (
        "App", "Call", "Case", "CaseAlt", "ConstructorInfo", "Ctor", "Dec",
        "Expr", "FnBody", "Function", "Inc", "JDecl", "Jmp", "Let", "Lit",
        "PAp", "Program", "Proj", "Reset", "Ret", "Reuse", "Unreachable",
        "body_size", "count_jumps", "free_vars", "live_sets",
    ),
    ".lowering": ("LoweringError", "lower_program"),
    ".simplifier": ("Simplifier", "SimplifierStats", "simplify_program"),
})
