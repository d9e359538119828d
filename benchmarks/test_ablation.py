"""Ablation study: run the rgn optimisation pipeline with one piece left out.

Not a figure in the paper, but DESIGN.md calls out the design choice of
splitting the region optimisations into separate passes; these cases check
that every ablation still compiles and runs the benchmark suite.  An
ablation is a pipeline spec: the compiler's rgn IR is captured as text and
re-run through the spec, exactly as ``python -m repro.opt`` would.
"""

import pytest

from repro.backend import MlirCompiler, PipelineOptions, lower_rgn_to_cf
from repro.eval.benchmarks import BENCHMARK_NAMES
from repro.interp.bytecode import VirtualMachine, compile_cfg_module
from repro.ir.parser import parse_module
from repro.rewrite.registry import build_pipeline

ABLATIONS = {
    "full": "cse,region-gvn,canonicalize,dce",
    "no-region-gvn": "cse,canonicalize,dce",
    "no-case-elimination": "cse,region-gvn,canonicalize{ablate=case-elim},dce",
    "no-common-branch": "cse,region-gvn,canonicalize{ablate=common-branch},dce",
    "no-dead-region": "cse,region-gvn,canonicalize{ablate=dead-region},dce",
    "no-constant-fold": "cse,region-gvn,canonicalize{ablate=constant-fold},dce",
    "no-cse": "region-gvn,canonicalize,dce",
}


def run_spec(source, spec, **options):
    """Compile ``source`` up to the rgn IR, run ``spec`` over its text
    (verifying each IR state), lower to CFG and run it on the VM."""
    captured = MlirCompiler(PipelineOptions(
        capture_ir=("rgn",), run_rgn_optimizations=False, **options
    )).compile(source).captured_ir["rgn"]
    module = parse_module(captured)
    build_pipeline(spec, verify_each=True).run(module)
    cfg = lower_rgn_to_cf(module)
    return VirtualMachine(compile_cfg_module(cfg)).run_main()


@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
@pytest.mark.parametrize("name", BENCHMARK_NAMES[:4])
def test_ablation_compile_and_run(sources, name, ablation):
    assert run_spec(sources[name], ABLATIONS[ablation]).value is not None


def test_ablations_preserve_semantics(sources):
    source = sources["rbmap_checkpoint"]
    values = {run_spec(source, spec).value for spec in ABLATIONS.values()}
    assert len(values) == 1


@pytest.mark.parametrize("rc_mode", ("naive", "opt+reuse"))
@pytest.mark.parametrize("name", BENCHMARK_NAMES[:4])
def test_full_spec_through_text_matches_the_compiler(sources, name, rc_mode):
    # The text route is faithful: the compiler's own spec re-run over the
    # captured rgn IR gives the compiler's value and cost counts.
    compiled = MlirCompiler(PipelineOptions(rc_mode=rc_mode)).run(sources[name])
    replayed = run_spec(sources[name], ABLATIONS["full"], rc_mode=rc_mode)
    assert replayed.value == compiled.value
    assert replayed.metrics.counts == compiled.metrics.counts
    assert replayed.heap_stats == compiled.heap_stats
