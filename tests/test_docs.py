"""Documentation drift guards.

* Every operation registered in ``repro.dialects`` must be documented in
  ``docs/DIALECTS.md``, and every op-shaped name documented there must be
  registered — the reference page cannot drift from the code in either
  direction.
* Every relative (intra-repo) markdown link in ``docs/``,
  ``ARCHITECTURE.md``, ``ROADMAP.md``, ``README``-style pages and
  ``examples/README.md`` must resolve to an existing file.
* Every Figure 11 cell that names code (``FIGURE11_ROWS``) is mapped to
  importable symbols or pytest ids that exist, so the table cannot claim
  code the repository does not have.
* Every ``--flag`` shown after ``python -m repro`` or ``python -m
  repro.opt`` in ``docs/``, ``ARCHITECTURE.md`` or ``examples/README.md``
  is an option of that command's parser.

CI runs this module as its dedicated docs job.
"""

import argparse
import ast
import pkgutil
import re
from pathlib import Path

import pytest

import repro.dialects  # noqa: F401 - registers every dialect
from repro.__main__ import main as repro_main
from repro.ir.dialect import registered_dialects, registered_ops
from repro.opt import main as opt_main

REPO_ROOT = Path(__file__).resolve().parent.parent
DIALECTS_MD = REPO_ROOT / "docs" / "DIALECTS.md"

#: Markdown files whose intra-repo links the docs CI job guards.
LINKED_DOCS = sorted(
    [
        *(REPO_ROOT / "docs").glob("*.md"),
        REPO_ROOT / "ARCHITECTURE.md",
        REPO_ROOT / "ROADMAP.md",
        REPO_ROOT / "examples" / "README.md",
    ]
)

_OP_TOKEN = re.compile(r"`([a-z_][a-z_0-9]*\.[a-z_0-9]+)`")
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def documented_op_names() -> set:
    """Op-shaped backticked tokens in DIALECTS.md whose namespace is a
    registered dialect (so prose mentions of file paths etc. don't count)."""
    text = DIALECTS_MD.read_text(encoding="utf-8")
    dialect_names = set(registered_dialects())
    return {
        token
        for token in _OP_TOKEN.findall(text)
        if token.split(".", 1)[0] in dialect_names
    }


class TestDialectReferenceDrift:
    def test_dialects_md_exists(self):
        assert DIALECTS_MD.is_file(), "docs/DIALECTS.md is missing"

    def test_every_registered_op_is_documented(self):
        documented = documented_op_names()
        missing = sorted(set(registered_ops()) - documented)
        assert not missing, (
            "ops registered in dialects/ but absent from docs/DIALECTS.md: "
            f"{missing}"
        )

    def test_every_documented_op_is_registered(self):
        registered = set(registered_ops())
        stale = sorted(documented_op_names() - registered)
        assert not stale, (
            f"docs/DIALECTS.md documents unregistered ops: {stale}"
        )

    def test_every_dialect_has_a_section_heading(self):
        text = DIALECTS_MD.read_text(encoding="utf-8")
        for dialect in registered_dialects():
            assert f"`{dialect}`" in text, (
                f"dialect {dialect!r} has no mention in docs/DIALECTS.md"
            )


EXECUTION_MD = REPO_ROOT / "docs" / "EXECUTION.md"

_TABLE_ROW_OPCODES = re.compile(r"^\| (`[^|]+`) \|", re.MULTILINE)
_BACKTICKED = re.compile(r"`([^`]+)`")


def documented_opcode_names() -> set:
    """First-column backticked names from EXECUTION.md's instruction-set
    and superinstruction tables (combined rows like ```inc` / `dec```
    contribute every name)."""
    text = EXECUTION_MD.read_text(encoding="utf-8")
    names = set()
    for section in ("## Superinstruction fusion", "## Instruction set"):
        start = text.index(section)
        end = text.index("\n## ", start + 1)
        for cell in _TABLE_ROW_OPCODES.findall(text[start:end]):
            names.update(_BACKTICKED.findall(cell))
    return names


class TestExecutionReferenceDrift:
    """docs/EXECUTION.md cannot drift from the VM's opcode set — in
    either direction, fused opcodes included."""

    def test_execution_md_exists(self):
        assert EXECUTION_MD.is_file(), "docs/EXECUTION.md is missing"

    def test_every_opcode_is_documented(self):
        from repro.interp.bytecode import OPCODE_NAMES

        missing = sorted(set(OPCODE_NAMES.values()) - documented_opcode_names())
        assert not missing, (
            "opcodes defined in interp/bytecode.py but absent from "
            f"docs/EXECUTION.md: {missing}"
        )

    def test_every_documented_opcode_exists(self):
        from repro.interp.bytecode import OPCODE_NAMES

        stale = sorted(documented_opcode_names() - set(OPCODE_NAMES.values()))
        assert not stale, (
            f"docs/EXECUTION.md documents unknown opcodes: {stale}"
        )

    def test_every_fused_opcode_documents_its_expansion(self):
        from repro.interp.bytecode import FUSED_OPCODE_BASES

        text = EXECUTION_MD.read_text(encoding="utf-8")
        for fused in FUSED_OPCODE_BASES:
            assert f"`{fused}`" in text, (
                f"fused opcode {fused!r} missing from docs/EXECUTION.md"
            )

    def test_every_static_charge_is_documented(self):
        """The instruction-set table's charge after ``·`` is the opcode's
        ``_STATIC_CHARGES`` list, joined by `` + ``; an opcode that
        charges nothing statically documents ``—`` or a dynamic charge."""
        from repro.interp.bytecode import (
            _STATIC_CHARGES,
            FUSED_OPCODE_BASES,
            OPCODE_NAMES,
        )

        text = EXECUTION_MD.read_text(encoding="utf-8")
        start = text.index("## Instruction set")
        end = text.index("\n## ", start + 1)
        charges = {name: _STATIC_CHARGES[op] for op, name in OPCODE_NAMES.items()}
        checked = set()
        for row in text[start:end].splitlines():
            cells = [cell.strip() for cell in row.strip("|").split("|")]
            if len(cells) != 3 or " · " not in cells[2]:
                continue
            documented = cells[2].rsplit(" · ", 1)[1]
            for name in _BACKTICKED.findall(cells[0]):
                static = charges[name]
                if static:
                    expected = " + ".join(f"`{event}`" for event in static)
                    assert documented == expected, (name, documented, expected)
                else:
                    assert documented == "—" or "(" in documented, (
                        name, documented,
                    )
                checked.add(name)
        assert checked == set(charges) - set(FUSED_OPCODE_BASES)


class TestIntraRepoLinks:
    @pytest.mark.parametrize(
        "doc", LINKED_DOCS, ids=[str(p.relative_to(REPO_ROOT)) for p in LINKED_DOCS]
    )
    def test_relative_links_resolve(self, doc):
        text = doc.read_text(encoding="utf-8")
        broken = []
        for target in _MD_LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, (
            f"{doc.relative_to(REPO_ROOT)} has broken intra-repo links: {broken}"
        )


#: Figure 11 feature -> {cell text: what backs it}.  A backing entry is a
#: dotted importable symbol or a pytest id (``tests/<file>::<name>...``).
#: Keys are the cells' exact text, so editing a cell means re-mapping it.
FIGURE11_CODE = {
    "Backend": {
        "C-like emission (c_backend)": (
            "repro.backend.c_backend.emit_c_source",
        ),
        "mini-MLIR (lp + rgn dialects)": ("repro.dialects.lp", "repro.dialects.rgn"),
    },
    "Vectorization": {
        "possible via dialects (affine/linalg analogue)": (
            "repro.ir.dialect.Dialect",
            "repro.ir.dialect.register_op",
        ),
    },
    "Testing harness": {
        "pytest + textual IR FileCheck-style tests": (
            "tests/test_opt_tool.py::TestPerPassFileCheck",
        ),
    },
    "Constant folding": {
        "hand-written (λpure simplifier)": (
            "repro.lambda_pure.simplifier.Simplifier._fold_call",
        ),
        "rewrite patterns (canonicalize drain)": (
            "repro.transforms.constant_fold.constant_fold_patterns",
            "repro.transforms.canonicalize.CanonicalizePass",
        ),
    },
    "CSE": {
        "builtin pass (cse, extended by region-gvn)": (
            "repro.transforms.cse.CSEPass",
            "repro.transforms.region_gvn.RegionGVNPass",
        ),
    },
    "DCE": {
        "hand-written": ("repro.lambda_pure.simplifier.Simplifier._simplify",),
        "builtin pass (dce)": ("repro.transforms.dce.DeadCodeEliminationPass",),
    },
    "Inliner": {
        "hand-written join inlining": (
            "repro.lambda_pure.simplifier.Simplifier._inline_join",
        ),
        "region inlining: rgn.run of a single-use rgn.val (canonicalize)": (
            "repro.transforms.case_elimination.InlineRunOfKnownRegion",
        ),
    },
    "Test minimization": {
        "crash bundle cut at the failing pass + hypothesis program shrinking": (
            "repro.rewrite.pass_manager.PassManager._replay_prefix",
            "tests/test_resilience.py::TestOneSnapshotPerRun::"
            "test_bundle_input_is_the_prefix_run_over_the_pipeline_input",
            "tests/test_fuzz.py::TestFuzzCli::test_failure_is_saved_to_corpus_dir",
        ),
    },
    "Debug information": {
        "value name hints preserved end-to-end": (
            "repro.ir.printer._NameManager.name_value",
            "repro.ir.parser._hint_from_name",
            "tests/test_roundtrip.py::test_hint_collision_suffix_roundtrips",
        ),
    },
    "IDE support": {
        "textual IR + parser (LSP-ready)": (
            "repro.ir.parser.parse_module",
            "repro.ir.printer.print_module",
        ),
    },
    "Tail call optimization": {
        "VM call+ret peephole, no IR mark": ("repro.interp.bytecode.FUSION_RULES",),
        "verified musttail attribute + VM frame reuse": (
            "repro.dialects.func.CallOp.in_tail_position",
            "tests/test_execution_engine.py::TestMusttail",
        ),
    },
}

#: Figure 11 cells that name no code of this repository.
FIGURE11_NO_CODE = {
    ("Vectorization", "No"),
    ("Testing harness", "ad-hoc scripts"),
    ("Test minimization", "none"),
    ("Debug information", "none"),
    ("IDE support", "none"),
    ("CSE", "none"),
}


def _resolve_symbol(dotted: str) -> bool:
    """Whether ``dotted`` names a module or an attribute path below one."""
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def _resolve_test_id(test_id: str) -> bool:
    """Whether ``path::Class::test`` names a class/function defined in the
    test file (checked on its syntax tree, without importing it)."""
    path, *names = test_id.split("::")
    file = REPO_ROOT / path
    if not file.is_file() or not names:
        return False
    scope = ast.parse(file.read_text(encoding="utf-8")).body
    for name in names:
        found = [
            node for node in scope
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and node.name == name
        ]
        if not found:
            return False
        scope = found[0].body
    return True


class TestFigure11Drift:
    """Figure 11 cannot name code the repository does not have."""

    def test_every_row_is_mapped(self):
        from repro.eval.figures import FIGURE11_ROWS

        features = [feature for feature, _, _ in FIGURE11_ROWS]
        assert sorted(FIGURE11_CODE) == sorted(features)
        for feature, old, new in FIGURE11_ROWS:
            for cell in (old, new):
                mapped = cell in FIGURE11_CODE[feature]
                prose = (feature, cell) in FIGURE11_NO_CODE
                assert mapped != prose, (
                    f"Figure 11 {feature!r} cell {cell!r} must be either "
                    "mapped to code or listed as naming none"
                )
        cells = {
            (feature, cell)
            for feature, old, new in FIGURE11_ROWS
            for cell in (old, new)
        }
        stale = sorted(
            {(f, c) for f, by_cell in FIGURE11_CODE.items() for c in by_cell}
            - cells
        )
        assert not stale, f"mapped cells not in Figure 11: {stale}"

    @pytest.mark.parametrize("feature", sorted(FIGURE11_CODE))
    def test_every_mapped_entry_resolves(self, feature):
        broken = [
            entry
            for entries in FIGURE11_CODE[feature].values()
            for entry in entries
            if not (
                _resolve_test_id(entry) if "::" in entry
                else _resolve_symbol(entry)
            )
        ]
        assert not broken, (
            f"Figure 11 {feature!r} cites code that does not exist: {broken}"
        )


#: Pages whose ``python -m repro`` / ``python -m repro.opt`` command lines
#: the CLI flag drift test reads.
CLI_DOCS = sorted(
    [
        *(REPO_ROOT / "docs").glob("*.md"),
        REPO_ROOT / "ARCHITECTURE.md",
        REPO_ROOT / "examples" / "README.md",
    ]
)

_CLI_COMMAND = re.compile(r"python3? -m (repro(?:\.opt)?)(?![.\w])")
#: What ends a command: a closing backtick, a pipe, a redirect, a shell
#: separator, a comment or the end of the line.
_COMMAND_END = re.compile(r"[`|>;#\n]|&&")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def documented_cli_flags(tool: str) -> dict:
    """``--flag`` -> the pages showing it after ``python -m <tool>``
    (backslash-continued lines count as one command)."""
    flags: dict = {}
    for doc in CLI_DOCS:
        text = doc.read_text(encoding="utf-8").replace("\\\n", " ")
        for match in _CLI_COMMAND.finditer(text):
            if match.group(1) != tool:
                continue
            command = _COMMAND_END.split(text[match.end():], 1)[0]
            for flag in _FLAG.findall(command):
                flags.setdefault(flag, set()).add(
                    str(doc.relative_to(REPO_ROOT))
                )
    return flags


def parser_flags(monkeypatch, main) -> set:
    """Every option string of the parser ``main`` builds (captured at its
    ``parse_args`` call, before any argument is read)."""
    parsers = []

    class _Captured(Exception):
        pass

    def capture(parser, *args, **kwargs):
        parsers.append(parser)
        raise _Captured

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Captured):
        main([])
    return set(parsers[0]._option_string_actions)


class TestCliFlagDrift:
    @pytest.mark.parametrize(
        "tool, main",
        (("repro", repro_main), ("repro.opt", opt_main)),
        ids=("repro", "repro.opt"),
    )
    def test_documented_flags_exist(self, monkeypatch, tool, main):
        documented = documented_cli_flags(tool)
        assert documented, f"no python -m {tool} command lines found"
        known = parser_flags(monkeypatch, main)
        stale = {
            flag: sorted(pages)
            for flag, pages in documented.items()
            if flag not in known
        }
        assert not stale, (
            f"flags shown after python -m {tool} that its parser lacks: "
            f"{stale}"
        )
