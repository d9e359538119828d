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
        The exception type and message, then any notes the exception
        carries — among them the pass manager's note when it could not
        rebuild the pre-pass IR and wrote the pipeline input and the whole
        pipeline instead (MLIR's non-local reproducer).

The pass manager prints the module once per run and rebuilds the
failing pass's input by replaying the passes before it (see
:class:`~repro.rewrite.pass_manager.PassManager`), so ``input.mlir`` is
the IR the failing pass saw and ``pipeline.txt`` starts at that pass.

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


class CrashBundle(Record):
    """A loaded crash reproducer bundle (see :func:`load_bundle`)."""

    _fields = (
        "path", "input_ir", "pipeline_spec", "failing_pass", "error_type",
        "error_message", "faults", "verify_each", "environment", "metrics",
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
    exception after the bundle is on disk.
    """

    def __init__(self, base_dir: Union[str, Path]):
        self.base_dir = Path(base_dir)
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
        notes = "".join(
            note + "\n" for note in getattr(error, "__notes__", ())
        )
        (bundle_dir / ERROR_TXT).write_text(
            error_text + "\n" + notes, encoding="utf-8"
        )
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
        self.written.append(bundle_dir)
        return bundle_dir


def report_crash_bundle(error: BaseException) -> None:
    """Print the bundle path a pass manager's crash handler attached to
    ``error`` (the ``crash bundle: <path>`` line of both CLIs)."""
    path = getattr(error, "crash_bundle", None)
    if path:
        print(f"crash bundle: {path}", file=sys.stderr)
