"""Backends: λrc → lp codegen, lp → rgn and rgn → CFG lowerings, the baseline
C emitter and the end-to-end pipeline drivers."""

from ..lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".c_backend": ("emit_c_source",),
    ".lowering_context": ("LabelScope", "LoweringContext"),
    ".lp_codegen": ("CodegenError", "generate_lp_module"),
    ".lp_to_rgn": ("lower_lp_to_rgn",),
    ".pipeline": (
        "FIGURE10_VARIANTS", "RC_VARIANTS", "BaselineCompiler",
        "CompilationArtifacts", "CompilationSession", "Frontend",
        "MlirCompiler", "PipelineOptions", "build_spec_pipeline",
        "rgn_pipeline_spec", "run_baseline", "run_mlir", "run_reference",
    ),
    ".rgn_to_cf": ("lower_rgn_to_cf",),
})
