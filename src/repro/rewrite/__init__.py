"""Pattern rewriting and pass management (the analogue of MLIR's
``PatternRewriter`` / greedy rewrite driver / ``PassManager``)."""

from ..lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".driver": (
        "ENGINES", "GreedyRewriteResult", "NonConvergenceError",
        "PatternSet", "Worklist", "apply_patterns_greedily",
    ),
    ".pass_manager": ("FunctionPass", "Pass", "PassManager"),
    ".pattern": ("PatternRewriter", "RewritePattern"),
    ".registry": (
        "PassInvocation", "PassOption", "PipelineSpecError", "RegisteredPass",
        "build_pipeline", "canonical_pipeline_spec", "parse_pipeline_spec",
        "pipeline_fingerprint", "register_pass", "registered_passes",
    ),
})
