"""Parser/printer roundtrip guard over the whole regression suite.

For every testsuite program, the textual IR at each pipeline level (lp
after codegen, rgn entering the optimisations, rgn-opt leaving them, and
the final CFG) must satisfy ``print(parse(text)) == text`` byte-for-byte.
This is what makes ``python -m repro.opt`` trustworthy: IR can leave the
compiler as text, travel through files and pipelines, and come back
without drifting.

Byte-identity leans on two properties fixed alongside this test:

* colliding name hints print with a ``$N`` suffix (``x`` → ``x$1``), which
  the parser strips when recovering the hint — a reprint regenerates the
  same names instead of snowballing (``x_1`` → ``x_1_1``),
* purely numeric SSA names stay anonymous through parsing, so reprints
  renumber them identically.
"""

import pytest

from repro.backend.pipeline import MlirCompiler, PipelineOptions
from repro.eval.testsuite import regression_programs
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.verifier import verify

PROGRAMS = regression_programs()


def _roundtrip(text: str, label: str) -> None:
    module = parse_module(text)
    verify(module)
    reprint = print_module(module)
    assert reprint == text, f"{label}: parse→print not byte-identical"


@pytest.fixture(scope="module")
def captured():
    """program name -> {level: ir_text} for every pipeline level."""
    options = PipelineOptions(capture_ir=("lp", "rgn", "rgn-opt"))
    snapshots = {}
    for program in PROGRAMS:
        artifacts = MlirCompiler(options).compile(program.source)
        texts = dict(artifacts.captured_ir)
        texts["cfg"] = print_module(artifacts.cfg_module)
        snapshots[program.name] = texts
    return snapshots


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_roundtrip_all_levels(program, captured):
    texts = captured[program.name]
    assert set(texts) == {"lp", "rgn", "rgn-opt", "cfg"}
    for level, text in texts.items():
        _roundtrip(text, f"{program.name}/{level}")


def test_hint_collision_suffix_roundtrips():
    # Two values sharing the hint "x" print as %x and %x$1; a parse →
    # print cycle must reproduce exactly those names (the parser strips
    # the $-suffix, the reprint re-derives it from the same collision).
    text = (
        '"builtin.module"() ({\n'
        "^bb0:\n"
        '  %x = "arith.constant"() {value = 1 : i64} : () -> i64\n'
        '  %x$1 = "arith.constant"() {value = 2 : i64} : () -> i64\n'
        '  %0 = "arith.cmpi"(%x, %x$1) {predicate = "eq"} : (i64, i64) -> i1\n'
        "}) : () -> ()\n"
    )
    module = parse_module(text)
    values = [op.results[0] for op in module.body if op.results]
    assert [v.name_hint for v in values] == ["x", "x", None]
    assert print_module(module) == text


def test_anonymous_names_stay_anonymous():
    text = (
        '"builtin.module"() ({\n'
        "^bb0:\n"
        '  %7 = "arith.constant"() {value = 1 : i64} : () -> i64\n'
        "}) : () -> ()\n"
    )
    module = parse_module(text)
    (op,) = list(module.body)
    assert op.results[0].name_hint is None
    # The reprint renumbers compactly from %0.
    assert '%0 = "arith.constant"' in print_module(module)
