"""Crash reproducer bundles.

When a pass raises, ``verify_each`` rejects its output, or a budget
trips, the pass manager hands the failure to a :class:`CrashBundleWriter`
which serialises everything needed to replay it — MLIR's pass-pipeline
crash reproducers (Lattner et al., CGO 2021) adapted to this stack's
textual IR + pipeline-spec grammar:

``crash-<sha12>/``
    ``bundle.json``
        Schema ``repro/crash-bundle/v1``: the failing pass, the remaining
        canonical pipeline spec, the fault plan re-based to the bundle's
        starting point, ``verify_each``, the exception, an environment
        snapshot and the telemetry metrics at failure time.
    ``input.mlir``
        Textual IR as it stood *before* the failing pass ran.
    ``pipeline.txt``
        The remaining pipeline spec (failing pass first) — what
        ``python -m repro.opt --pipeline-from-bundle <dir>`` replays.
    ``error.txt``
        The exception type and message.
    ``minimal.mlir`` / ``minimal-pipeline.txt``
        Appended by :func:`~repro.resilience.bisect.bisect_bundle`: the IR
        immediately before the first faulty pass plus that single pass's
        spec — the one-pass reproducer.

The directory name is content-addressed (sha256 of IR + spec + error,
twelve hex digits), so the same crash lands in the same directory and
re-crashes do not pile up duplicates.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..record import Record
from ..telemetry import get_metrics

BUNDLE_SCHEMA = "repro/crash-bundle/v1"

BUNDLE_JSON = "bundle.json"
INPUT_IR = "input.mlir"
PIPELINE_TXT = "pipeline.txt"
ERROR_TXT = "error.txt"
MINIMAL_IR = "minimal.mlir"
MINIMAL_PIPELINE_TXT = "minimal-pipeline.txt"


class CrashBundle(Record):
    """A loaded crash reproducer bundle (see :func:`load_bundle`)."""

    _fields = (
        "path", "input_ir", "pipeline_spec", "failing_pass", "error_type",
        "error_message", "faults", "verify_each", "environment", "metrics",
        "bisect",
    )

    def __init__(
        self,
        path: Path,
        input_ir: str,
        pipeline_spec: str,
        failing_pass: str,
        error_type: str,
        error_message: str,
        faults: List[str],
        verify_each: bool,
        environment: Dict[str, str],
        metrics: Dict[str, Union[int, float]],
        bisect: Optional[Dict[str, Optional[str]]] = None,
    ):
        self.path = path
        self.input_ir = input_ir
        self.pipeline_spec = pipeline_spec
        self.failing_pass = failing_pass
        self.error_type = error_type
        self.error_message = error_message
        #: ``site:N`` fault specs re-based to the bundle's starting point
        #: (empty when the crash was organic, not injected).
        self.faults = faults
        self.verify_each = verify_each
        self.environment = environment
        self.metrics = metrics
        #: Bisection result, if :func:`bisect_bundle` has run: keys
        #: ``failing_pass`` and (for pattern passes) ``failing_pattern``.
        self.bisect = bisect

    @property
    def minimal_pipeline_spec(self) -> Optional[str]:
        minimal = self.path / MINIMAL_PIPELINE_TXT
        if minimal.exists():
            return minimal.read_text(encoding="utf-8").strip()
        return None


def load_bundle(path: Union[str, Path]) -> CrashBundle:
    """Load a crash bundle directory written by :class:`CrashBundleWriter`."""
    import json

    bundle_dir = Path(path)
    manifest_path = bundle_dir / BUNDLE_JSON
    if not manifest_path.exists():
        raise FileNotFoundError(
            f"{bundle_dir} is not a crash bundle (no {BUNDLE_JSON})"
        )
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    schema = manifest.get("schema")
    if schema != BUNDLE_SCHEMA:
        raise ValueError(
            f"unsupported crash-bundle schema {schema!r} in {manifest_path} "
            f"(expected {BUNDLE_SCHEMA!r})"
        )
    return CrashBundle(
        path=bundle_dir,
        input_ir=(bundle_dir / INPUT_IR).read_text(encoding="utf-8"),
        pipeline_spec=(
            (bundle_dir / PIPELINE_TXT).read_text(encoding="utf-8").strip()
        ),
        failing_pass=manifest["failing_pass"],
        error_type=manifest["error"]["type"],
        error_message=manifest["error"]["message"],
        faults=list(manifest.get("faults", [])),
        verify_each=bool(manifest.get("verify_each", True)),
        environment=dict(manifest.get("environment", {})),
        metrics=dict(manifest.get("metrics", {})),
        bisect=manifest.get("bisect"),
    )


def _environment_snapshot() -> Dict[str, str]:
    import platform

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "recursion_limit": str(sys.getrecursionlimit()),
    }


class CrashBundleWriter:
    """Writes crash reproducer bundles under a base directory.

    One writer serves one pipeline run; the pass manager calls
    :meth:`on_crash` with the failure context and re-raises the original
    exception after the bundle is on disk.  With ``bisect=True`` (the
    default) the writer immediately re-runs the bundle through
    :func:`~repro.resilience.bisect.bisect_bundle` to pin down the first
    faulty pass — guarded, so a bisection failure never masks the crash
    being reported.
    """

    def __init__(self, base_dir: Union[str, Path], *, bisect: bool = True):
        self.base_dir = Path(base_dir)
        self.bisect = bisect
        #: Paths of every bundle this writer produced, in order.
        self.written: List[Path] = []

    def on_crash(
        self,
        *,
        pre_pass_ir: str,
        remaining_spec: str,
        failing_pass: str,
        error: BaseException,
        fault_specs: Optional[List[str]] = None,
        verify_each: bool = True,
    ) -> Path:
        """Write one bundle; returns its directory."""
        import json
        from hashlib import sha256

        error_text = f"{type(error).__name__}: {error}"
        digest = sha256(
            "\x00".join([pre_pass_ir, remaining_spec, error_text]).encode(
                "utf-8"
            )
        ).hexdigest()[:12]
        bundle_dir = self.base_dir / f"crash-{digest}"
        bundle_dir.mkdir(parents=True, exist_ok=True)

        (bundle_dir / INPUT_IR).write_text(pre_pass_ir, encoding="utf-8")
        (bundle_dir / PIPELINE_TXT).write_text(
            remaining_spec + "\n", encoding="utf-8"
        )
        (bundle_dir / ERROR_TXT).write_text(error_text + "\n", encoding="utf-8")
        manifest = {
            "schema": BUNDLE_SCHEMA,
            "failing_pass": failing_pass,
            "pipeline": remaining_spec,
            "faults": list(fault_specs or []),
            "verify_each": verify_each,
            "error": {
                "type": type(error).__name__,
                "message": str(error),
                "failing_pattern": getattr(error, "failing_pattern", None),
            },
            "environment": _environment_snapshot(),
            "metrics": get_metrics().snapshot(),
        }
        (bundle_dir / BUNDLE_JSON).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

        registry = get_metrics()
        if registry.enabled:
            registry.bump("resilience.bundles.written")

        if self.bisect:
            from .bisect import bisect_bundle

            try:
                bisect_bundle(bundle_dir)
            except Exception:
                # Bisection is best-effort diagnosis; the bundle itself is
                # already complete and replayable without it.
                pass

        self.written.append(bundle_dir)
        return bundle_dir
