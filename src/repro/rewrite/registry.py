"""Pass registry and textual pipeline specifications.

Every pass self-registers under a stable name (``@register_pass`` on the
pass class), and a pipeline can then be described as *text* instead of a
hand-wired call sequence — the mlir-opt / xdsl-opt architecture::

    cse,region-gvn,canonicalize{ablate=case-elim},dce

Grammar (whitespace is insignificant outside names and values)::

    pipeline ::= pass ("," pass)*
    pass     ::= name [ "{" option ("," option)* "}" ]
    option   ::= key "=" value

Options are validated against the pass's declared :class:`PassOption` list before
the pass is constructed, so unknown passes, unknown options, duplicate
non-repeatable options and out-of-choice values all fail with a
:class:`PipelineSpecError` naming the offending spec fragment.  Every
option declares its closed set of values, so a pass constructor never
sees a value the registry has not checked.

:func:`build_pipeline` turns a spec into a ready
:class:`~repro.rewrite.pass_manager.PassManager`;
:func:`pipeline_fingerprint` hashes the *canonical* form of a spec, which
is what keys the session's incremental rgn-opt cache.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from ..record import FrozenRecord, Record
from .pass_manager import Pass, PassManager


class PipelineSpecError(ValueError):
    """Raised when a textual pipeline spec cannot be parsed or resolved."""


class PassOption(FrozenRecord):
    """One option a registered pass accepts in pipeline specs."""

    _fields = ("name", "help", "repeatable", "choices", "default")

    def __init__(
        self,
        name: str,
        help: str = "",
        repeatable: bool = False,
        *,
        choices: Tuple[str, ...],
        default: str = "",
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "help", help)
        #: May the option appear more than once (values accumulate)?
        object.__setattr__(self, "repeatable", repeatable)
        #: Closed set of accepted values.
        object.__setattr__(self, "choices", choices)
        #: Value documented as the default when the option is omitted.
        object.__setattr__(self, "default", default)


class RegisteredPass(FrozenRecord):
    """Registry row: a stable name bound to a pass class."""

    _fields = ("name", "pass_class", "options", "description")

    def __init__(
        self,
        name: str,
        pass_class: type,
        options: Tuple[PassOption, ...],
        description: str,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "pass_class", pass_class)
        object.__setattr__(self, "options", options)
        object.__setattr__(self, "description", description)

    def option(self, name: str) -> Optional[PassOption]:
        for opt in self.options:
            if opt.name == name:
                return opt
        return None


#: name -> RegisteredPass.  Populated by :func:`register_pass` decorators at
#: import time; :func:`ensure_passes_loaded` imports every pass module.
_REGISTRY: Dict[str, RegisteredPass] = {}
_PASSES_LOADED = False

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+_.\-]*$")


def register_pass(cls: type) -> type:
    """Class decorator: register ``cls`` under its ``name`` attribute.

    The class declares its spec surface through two optional attributes:

    * ``SPEC_OPTIONS`` — a tuple of :class:`PassOption`,
    * ``from_spec_options(options)`` — a classmethod building an instance
      from the validated ``{key: [values]}`` mapping (the base
      :class:`~repro.rewrite.pass_manager.Pass` implementation takes no
      options and calls the zero-argument constructor).
    """
    name = getattr(cls, "name", None)
    if not name or not _NAME_RE.match(name):
        raise ValueError(f"pass class {cls.__name__} has no registrable name")
    if name in _REGISTRY and _REGISTRY[name].pass_class is not cls:
        raise ValueError(
            f"pass name {name!r} already registered by "
            f"{_REGISTRY[name].pass_class.__name__}"
        )
    doc = (cls.__doc__ or "").strip().splitlines()
    _REGISTRY[name] = RegisteredPass(
        name=name,
        pass_class=cls,
        options=tuple(getattr(cls, "SPEC_OPTIONS", ())),
        description=doc[0] if doc else "",
    )
    return cls


def ensure_passes_loaded() -> None:
    """Import every module that defines registered passes (idempotent)."""
    global _PASSES_LOADED
    if _PASSES_LOADED:
        return
    _PASSES_LOADED = True
    from .. import transforms  # noqa: F401 - imports register the passes
    from ..rc_opt import lp_fusion  # noqa: F401


def registered_passes() -> Dict[str, RegisteredPass]:
    """All registered passes, keyed by stable name, sorted by name."""
    ensure_passes_loaded()
    return dict(sorted(_REGISTRY.items()))


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


class PassInvocation(Record):
    """One parsed ``name{options}`` element of a pipeline spec."""

    _fields = ("name", "options")

    def __init__(
        self,
        name: str,
        options: Optional[Dict[str, List[str]]] = None,
    ):
        self.name = name
        #: key -> values, in spec order.
        self.options = {} if options is None else options

    def spec(self) -> str:
        """Canonical textual form (sorted keys, values in given order)."""
        if not self.options:
            return self.name
        parts = []
        for key in sorted(self.options):
            for value in self.options[key]:
                parts.append(f"{key}={value}")
        return self.name + "{" + ",".join(parts) + "}"


def parse_pipeline_spec(spec: str) -> List[PassInvocation]:
    """Parse a textual pipeline spec into pass invocations.

    Purely syntactic: names are not resolved against the registry here
    (:func:`build_pipeline` does that), so the parser is usable for error
    reporting and canonicalisation alone.
    """
    invocations: List[PassInvocation] = []
    pos = 0
    text = spec.strip()
    if not text:
        raise PipelineSpecError("empty pipeline spec")
    while pos < len(text):
        match = re.compile(r"\s*([A-Za-z][A-Za-z0-9+_.\-]*)\s*").match(text, pos)
        if match is None:
            raise PipelineSpecError(
                f"expected a pass name at offset {pos} in {text!r}"
            )
        invocation = PassInvocation(match.group(1))
        pos = match.end()
        if pos < len(text) and text[pos] == "{":
            closing = text.find("}", pos)
            if closing < 0:
                raise PipelineSpecError(
                    f"unterminated '{{' after pass {invocation.name!r}"
                )
            body = text[pos + 1 : closing]
            pos = closing + 1
            for raw in body.split(","):
                raw = raw.strip()
                if not raw:
                    if body.strip():
                        raise PipelineSpecError(
                            f"empty option in {invocation.name!r} options "
                            f"{{{body}}}"
                        )
                    continue
                key, eq, value = raw.partition("=")
                key = key.strip()
                value = value.strip()
                if not key or (eq and not value):
                    raise PipelineSpecError(
                        f"malformed option {raw!r} for pass {invocation.name!r}"
                    )
                if not eq:
                    raise PipelineSpecError(
                        f"option {key!r} of pass {invocation.name!r} needs "
                        f"a value: write {key}=<value>"
                    )
                invocation.options.setdefault(key, []).append(value)
        invocations.append(invocation)
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos < len(text):
            if text[pos] != ",":
                raise PipelineSpecError(
                    f"expected ',' between passes at offset {pos} in {text!r}"
                )
            pos += 1
            if not text[pos:].strip():
                raise PipelineSpecError(f"trailing ',' in pipeline spec {text!r}")
    return invocations


def _validate_options(
    registered: RegisteredPass, invocation: PassInvocation
) -> None:
    for key, values in invocation.options.items():
        option = registered.option(key)
        if option is None:
            known = ", ".join(o.name for o in registered.options) or "none"
            raise PipelineSpecError(
                f"pass {registered.name!r} accepts no option {key!r} "
                f"(known options: {known})"
            )
        if len(values) > 1 and not option.repeatable:
            raise PipelineSpecError(
                f"option {key!r} of pass {registered.name!r} given "
                f"{len(values)} times but is not repeatable"
            )
        for value in values:
            if value not in option.choices:
                raise PipelineSpecError(
                    f"option {key}={value!r} of pass {registered.name!r} "
                    f"not in {option.choices}"
                )


def resolve_pipeline(spec: str) -> List[Tuple[RegisteredPass, PassInvocation]]:
    """Parse ``spec`` and resolve every element against the registry."""
    ensure_passes_loaded()
    resolved = []
    for invocation in parse_pipeline_spec(spec):
        registered = _REGISTRY.get(invocation.name)
        if registered is None:
            known = ", ".join(sorted(_REGISTRY))
            raise PipelineSpecError(
                f"unknown pass {invocation.name!r} (registered passes: {known})"
            )
        _validate_options(registered, invocation)
        resolved.append((registered, invocation))
    return resolved


def build_passes(spec: str) -> List[Pass]:
    """Construct the pass instances a spec describes."""
    passes = []
    for registered, invocation in resolve_pipeline(spec):
        instance = registered.pass_class.from_spec_options(invocation.options)
        # Remember the canonical one-pass spec so crash bundles can record
        # a replayable remaining pipeline (options included).
        instance.spec = invocation.spec()
        passes.append(instance)
    return passes


def build_pipeline(
    spec: str,
    *,
    verify_each: bool = True,
    instrumentations: Optional[Sequence] = None,
    crash_handler=None,
) -> PassManager:
    """Build a :class:`PassManager` from a textual pipeline spec."""
    return PassManager(
        build_passes(spec),
        verify_each=verify_each,
        instrumentations=instrumentations,
        crash_handler=crash_handler,
    )


def canonical_pipeline_spec(spec: str) -> str:
    """The canonical text of ``spec``: resolved names, sorted option keys."""
    return ",".join(
        invocation.spec() for _, invocation in resolve_pipeline(spec)
    )


#: Version salt for :func:`pipeline_fingerprint`.  Bump when a pass changes
#: behaviour without changing its spec surface, so a fingerprint recorded
#: by an older tree (``repro.opt --show-pipeline`` prints one) stops
#: matching.
PIPELINE_HASH_VERSION = "repro/pipeline/v1"


def pipeline_fingerprint(spec: str) -> str:
    """Stable hash of a pipeline spec's canonical form.

    Two specs that build the same pipeline (same passes, same options —
    regardless of option order or whitespace) share a fingerprint; any
    difference in pass lineup or options changes it.
    """
    import hashlib

    canonical = canonical_pipeline_spec(spec)
    digest = hashlib.sha256(
        (PIPELINE_HASH_VERSION + ":" + canonical).encode("utf-8")
    )
    return digest.hexdigest()[:16]


def describe_registered_passes() -> str:
    """Human-readable table of every registered pass (``--list-passes``)."""
    lines = ["Registered passes", "================="]
    for name, registered in registered_passes().items():
        lines.append(f"{name:28s} {registered.description}")
        for option in registered.options:
            detail = f"{option.help} (one of: {', '.join(option.choices)})"
            if option.default:
                detail += f" [default: {option.default}]"
            lines.append(f"  {{{option.name}=...}}  {detail.strip()}")
    return "\n".join(lines)
