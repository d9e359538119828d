"""Pipeline-spec parsing, validation, canonicalisation and fingerprints.

The textual pipeline grammar is the contract between ``repro.opt``, the
compiler's declarative phase specs (``rgn_pipeline_spec``) and the
incremental-recompilation cache keys, so each side gets direct coverage:

* syntax — valid specs, option payloads, whitespace tolerance, and the
  exact error for every malformed shape,
* registry resolution — unknown passes / options, repeatability, and
  choice sets (every option declares one, so no value reaches a pass
  constructor unchecked),
* canonical form + fingerprint stability (equivalent specs share one
  fingerprint, different pipelines never do),
* a docs drift guard: every registered pass name appears in
  ``docs/PASSES.md``.
"""

import re
from pathlib import Path

import pytest

from repro.backend.pipeline import (
    MlirCompiler,
    PipelineOptions,
    rgn_pipeline_spec,
)
from repro.backend.rgn_to_cf import lower_rgn_to_cf
from repro.interp.bytecode import VirtualMachine, compile_cfg_module
from repro.ir.parser import parse_module
from repro.rewrite import FunctionPass, PassManager
from repro.rewrite.registry import (
    PassOption,
    PipelineSpecError,
    build_passes,
    build_pipeline,
    canonical_pipeline_spec,
    parse_pipeline_spec,
    pipeline_fingerprint,
    registered_passes,
)
from repro.transforms import CanonicalizePass, CSEPass

REPO_ROOT = Path(__file__).resolve().parent.parent
PASSES_MD = REPO_ROOT / "docs" / "PASSES.md"

#: Every pass the registry must expose — the compiler's optimisation
#: surface.  Extending the registry means extending this list (and
#: docs/PASSES.md, per the drift test below).
EXPECTED_PASSES = [
    "canonicalize",
    "cse",
    "dce",
    "lp-rc-fusion",
    "region-gvn",
]


class TestParsing:
    def test_single_pass(self):
        (inv,) = parse_pipeline_spec("cse")
        assert inv.name == "cse"
        assert inv.options == {}

    def test_comma_separated_passes_in_order(self):
        invocations = parse_pipeline_spec("cse,region-gvn,canonicalize,dce")
        assert [i.name for i in invocations] == [
            "cse", "region-gvn", "canonicalize", "dce",
        ]

    def test_whitespace_is_insignificant(self):
        spec = "  cse , region-gvn ,\n canonicalize{ ablate = case-elim } "
        invocations = parse_pipeline_spec(spec)
        assert [i.name for i in invocations] == [
            "cse", "region-gvn", "canonicalize",
        ]
        assert invocations[2].options == {"ablate": ["case-elim"]}

    def test_option_payloads(self):
        (inv,) = parse_pipeline_spec(
            "canonicalize{ablate=case-elim,ablate=dead-region,engine=rescan}"
        )
        assert inv.options == {
            "ablate": ["case-elim", "dead-region"],
            "engine": ["rescan"],
        }

    @pytest.mark.parametrize(
        "spec, key, name",
        [
            ("cse{flag}", "flag", "cse"),
            ("canonicalize{ablate}", "ablate", "canonicalize"),
        ],
    )
    def test_bare_option_asks_for_a_value(self, spec, key, name):
        message = (
            f"option {key!r} of pass {name!r} needs a value: "
            f"write {key}=<value>"
        )
        with pytest.raises(PipelineSpecError, match=re.escape(message)):
            parse_pipeline_spec(spec)

    def test_empty_option_braces(self):
        (inv,) = parse_pipeline_spec("cse{}")
        assert inv.options == {}

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("", "empty pipeline spec"),
            ("   ", "empty pipeline spec"),
            ("cse,,dce", "expected a pass name"),
            ("cse,", "trailing ','"),
            ("cse dce", "expected ',' between passes"),
            ("canonicalize{ablate=case-elim", "unterminated '{'"),
            ("canonicalize{=x}", "malformed option"),
            ("canonicalize{ablate=}", "malformed option"),
            ("canonicalize{ablate=a,,engine=b}", "empty option"),
            ("{x}", "expected a pass name"),
        ],
    )
    def test_malformed_specs(self, spec, message):
        with pytest.raises(PipelineSpecError, match=re.escape(message)):
            parse_pipeline_spec(spec)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("cse dce", "expected ',' between passes at offset 4 in 'cse dce'"),
            ("cse,,dce", "expected a pass name at offset 4 in 'cse,,dce'"),
            ("9cse", "expected a pass name at offset 0 in '9cse'"),
            (
                "cse,region-gvn;dce",
                "expected ',' between passes at offset 14 in 'cse,region-gvn;dce'",
            ),
        ],
    )
    def test_diagnostics_carry_exact_offsets(self, spec, message):
        # The offset is part of the contract: repro.opt surfaces it
        # verbatim, and tooling points at the offending spec character.
        with pytest.raises(PipelineSpecError, match=re.escape(message)):
            parse_pipeline_spec(spec)


class TestResolution:
    def test_registry_contents(self):
        assert sorted(registered_passes()) == EXPECTED_PASSES

    def test_build_passes_constructs_registered_classes(self):
        passes = build_passes("cse,canonicalize")
        assert isinstance(passes[0], CSEPass)
        assert isinstance(passes[1], CanonicalizePass)

    def test_build_pipeline_returns_pass_manager(self):
        pipeline = build_pipeline("cse,dce", verify_each=False)
        assert isinstance(pipeline, PassManager)
        assert [p.name for p in pipeline.passes] == ["cse", "dce"]

    def test_option_reaches_constructor(self):
        (canonicalize,) = build_passes("canonicalize{engine=rescan}")
        assert isinstance(canonicalize, CanonicalizePass)
        assert canonicalize.engine == "rescan"

    def test_canonicalize_ablation_drops_family(self):
        (full,) = build_passes("canonicalize")
        (ablated,) = build_passes("canonicalize{ablate=case-elim}")
        assert len(ablated.patterns) < len(full.patterns)

    def test_unknown_pass(self):
        with pytest.raises(PipelineSpecError, match="unknown pass 'nope'"):
            build_passes("cse,nope,dce")

    def test_unknown_option(self):
        with pytest.raises(
            PipelineSpecError,
            match=re.escape("pass 'cse' accepts no option 'x' (known options: none)"),
        ):
            build_passes("cse{x=1}")

    def test_out_of_choice_value(self):
        with pytest.raises(
            PipelineSpecError, match="option ablate='zzz' of pass 'canonicalize'"
        ):
            build_passes("canonicalize{ablate=zzz}")

    def test_non_repeatable_option_duplicated(self):
        with pytest.raises(
            PipelineSpecError,
            match="option 'engine' of pass 'canonicalize' given 2 times",
        ):
            build_passes("canonicalize{engine=worklist,engine=rescan}")

    def test_constructor_validation_is_a_spec_error(self):
        # The registry checks the value against the option's choices, so
        # the pass constructor never sees it.
        with pytest.raises(
            PipelineSpecError,
            match=re.escape(
                "option engine='zz' of pass 'canonicalize' not in "
                "('worklist', 'rescan')"
            ),
        ):
            build_passes("canonicalize{engine=zz}")

    @pytest.mark.parametrize("name", EXPECTED_PASSES)
    def test_every_pass_is_a_function_pass(self, name):
        (instance,) = build_passes(name)
        assert isinstance(instance, FunctionPass)

    @pytest.mark.parametrize(
        "name, option, choice",
        [
            (name, option.name, choice)
            for name, registered in registered_passes().items()
            for option in registered.options
            for choice in option.choices
        ],
    )
    def test_every_declared_choice_builds(self, name, option, choice):
        # A constructor ValueError is no longer turned into a spec error,
        # so every value the registry accepts must construct cleanly.
        spec = f"{name}{{{option}={choice}}}"
        (instance,) = build_passes(spec)
        assert isinstance(instance, registered_passes()[name].pass_class)
        assert instance.spec == spec

    def test_pass_option_requires_choices(self):
        with pytest.raises(TypeError, match="choices"):
            PassOption("free-form", "any value")


class TestCanonicalisation:
    def test_whitespace_and_option_order_normalise(self):
        spec = " cse, region-gvn ,canonicalize{engine=worklist,ablate=case-elim},dce"
        assert canonical_pipeline_spec(spec) == (
            "cse,region-gvn,canonicalize{ablate=case-elim,engine=worklist},dce"
        )

    def test_canonical_form_is_a_fixpoint(self):
        spec = "canonicalize{engine=rescan,ablate=dead-region,ablate=case-elim}"
        canonical = canonical_pipeline_spec(spec)
        assert canonical_pipeline_spec(canonical) == canonical

    def test_fingerprint_ignores_spelling(self):
        a = pipeline_fingerprint("cse,canonicalize{engine=worklist,ablate=case-elim}")
        b = pipeline_fingerprint(" cse ,canonicalize{ablate=case-elim,engine=worklist}")
        assert a == b

    def test_fingerprint_separates_pipelines(self):
        fingerprints = {
            pipeline_fingerprint(spec)
            for spec in (
                "cse",
                "cse,dce",
                "dce,cse",
                "canonicalize",
                "canonicalize{ablate=case-elim}",
                "canonicalize{engine=rescan}",
            )
        }
        assert len(fingerprints) == 6

    def test_fingerprint_shape(self):
        fingerprint = pipeline_fingerprint("cse")
        assert re.fullmatch(r"[0-9a-f]{16}", fingerprint)


class TestCompilerSpecs:
    def test_default_rgn_spec(self):
        assert rgn_pipeline_spec(PipelineOptions()) == (
            "cse,region-gvn,canonicalize,dce"
        )

    def test_engine_surfaces_as_canonicalize_option(self):
        options = PipelineOptions(rewrite_engine="rescan")
        assert rgn_pipeline_spec(options) == (
            "cse,region-gvn,canonicalize{engine=rescan},dce"
        )

    @pytest.mark.parametrize("spec", (
        "cse,region-gvn,canonicalize,dce",
        "cse,region-gvn,canonicalize{engine=rescan},dce",
        "cse,region-gvn,canonicalize{ablate=case-elim},dce",
        "cse,region-gvn,dce",
    ))
    def test_ablation_specs_build(self, spec):
        build_pipeline(spec, verify_each=False)

    def test_ablation_is_a_spec_over_the_captured_rgn_ir(self):
        # Leaving case elimination out of the drain keeps the known-tag
        # switch that the full drain folds away; both versions verify after
        # every pass and still compute the same value.
        source = (
            "inductive T where\n| a\n| b (x : Nat)\n\n"
            "def main : Nat :=\n"
            "  match T.b 41 with\n  | T.a => 1\n  | T.b x => x + 1"
        )
        full = run_spec(source, "cse,region-gvn,canonicalize,dce")
        ablated = run_spec(
            source, "cse,region-gvn,canonicalize{ablate=case-elim},dce"
        )
        assert full[0] == ablated[0] == 42
        assert full[1] < ablated[1]


def run_spec(source, spec):
    """(value, CFG op count) of ``source`` with ``spec`` as its rgn
    optimisation pipeline, run over the compiler's captured rgn IR (the
    λpure simplifier off, so the rgn passes do all the folding)."""
    captured = MlirCompiler(PipelineOptions(
        capture_ir=("rgn",),
        run_lambda_simplifier=False,
        run_rgn_optimizations=False,
    )).compile(source).captured_ir["rgn"]
    module = parse_module(captured)
    build_pipeline(spec, verify_each=True).run(module)
    cfg = lower_rgn_to_cf(module)
    value = VirtualMachine(compile_cfg_module(cfg)).run_main().value
    return value, sum(1 for _ in cfg.walk())


class TestDocsDrift:
    def test_passes_md_exists(self):
        assert PASSES_MD.is_file(), "docs/PASSES.md is missing"

    def test_every_registered_pass_documented(self):
        text = PASSES_MD.read_text(encoding="utf-8")
        documented = set(re.findall(r"`([A-Za-z][A-Za-z0-9+_.\-]*)`", text))
        missing = sorted(set(registered_passes()) - documented)
        assert not missing, (
            "passes registered in the pass registry but absent from "
            f"docs/PASSES.md: {missing}"
        )
