"""Interpreters, the bytecode execution engine and the shared cost model."""

from ..lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".bytecode": (
        "EXECUTION_ENGINES", "BytecodeError", "BytecodeFunction",
        "BytecodeProgram", "VirtualMachine", "compile_cfg_module",
        "compile_rc_program",
    ),
    ".cfg_interp": ("CfgInterpreter", "CfgInterpreterError"),
    ".limits": ("DEFAULT_RECURSION_LIMIT", "recursion_limit"),
    ".metrics": ("DEFAULT_COSTS", "ExecutionMetrics", "RunResult"),
    ".rc_interp": ("RcInterpreter", "run_rc_program"),
    ".reference": (
        "ReferenceInterpreter", "RefClosure", "RefCtor", "normalize",
    ),
})
