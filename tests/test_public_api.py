"""Snapshot of the declared public API surface.

``repro.__all__`` is the semantic-versioning contract: the server's wire
schema re-exposes these same operations, and downstream code imports
them by name.  This test pins the exact surface so any accidental
rename, removal, or addition fails CI and forces a deliberate decision
(update the snapshot here *and* the docs, or revert the break).
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: The frozen public surface.  Additions are API decisions: update this
#: set, README, and DESIGN.md together.  Removals are breaking changes.
PUBLIC_API = frozenset({
    # errors + failure taxonomy
    "ReproError", "ConfigurationError", "ModelError", "FloorplanError",
    "MappingError", "TransientError", "PermanentError", "PoisonTaskError",
    "EvaluationFailure", "error_envelope",
    # fault injection + retry policy
    "FaultPlan", "FaultRule", "injected_faults", "RetryPolicy",
    # technology + architecture + workloads
    "foundry_m3d_pdk", "baseline_2d_design", "m3d_design", "case_study_cs",
    "alexnet", "vgg16", "resnet18", "resnet34", "resnet50", "resnet152",
    "build_network",
    # analytical core
    "simulate", "compare_designs", "Workload", "DesignPoint",
    "execution_time", "energy", "speedup", "edp_benefit", "analyze_network",
    # staged physical flow
    "FlowOutcome", "run_staged_flow",
    # runtime
    "EvaluationEngine", "ResultCache", "configure", "default_engine",
    "pmap", "stable_key",
    # declarative specs
    "DesignSpec", "FlowSpec", "SweepSpec", "evaluate_spec", "evaluate_specs",
    "load_design_spec", "load_sweep_spec",
    # streaming sweeps
    "run_streaming_sweep", "stream_sweep",
    # serving
    "ReproServer", "ServerConfig", "ServeClient", "ServeError", "serve",
    # metadata
    "__version__",
})


def test_public_surface_matches_snapshot():
    assert frozenset(repro.__all__) == PUBLIC_API, (
        "public API surface changed; if intentional, update PUBLIC_API in "
        "tests/test_public_api.py (and README/DESIGN.md)")


def test_no_duplicate_exports():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_every_export_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} does not resolve"


def test_serve_entry_points_are_complete():
    """The serve subpackage exposes server, client, and blocking entry."""
    assert callable(repro.ReproServer)
    assert callable(repro.ServerConfig)
    assert callable(repro.ServeClient)
    assert callable(repro.serve.serve)
    assert repro.serve.API_VERSION == "v1"


def test_import_repro_leaves_the_serve_stack_unloaded():
    """The serve names resolve on first use, so ``import repro`` does not
    load the HTTP server; the lazily resolved names are the serve
    package's own objects."""
    code = (
        "import sys\n"
        "import repro\n"
        "print('repro.serve.app' in sys.modules)\n"
        "print(repro.ReproServer is repro.serve.ReproServer)\n")
    src = str(Path(repro.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True)
    assert result.stdout.split() == ["False", "True"]


def test_evaluation_entry_points_share_signature_contract():
    """Spec evaluation entry points all accept an explicit engine."""
    for fn in (repro.evaluate_specs, repro.run_streaming_sweep):
        assert "engine" in inspect.signature(fn).parameters


def test_version_is_semver():
    major, minor, patch = repro.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


def test_error_envelope_shape_is_frozen():
    """The /v1 error envelope: exactly {error: {type, message, path}}."""
    envelope = repro.error_envelope(
        repro.ConfigurationError("bad value", path="tech.delta"))
    assert set(envelope) == {"error"}
    assert set(envelope["error"]) == {"type", "message", "path"}
    assert envelope["error"]["type"] == "configuration_error"
    assert envelope["error"]["path"] == "tech.delta"


def test_public_exceptions_form_one_hierarchy():
    for name in ("ConfigurationError", "ModelError", "FloorplanError",
                 "MappingError", "TransientError", "PermanentError",
                 "PoisonTaskError"):
        assert issubclass(getattr(repro, name), repro.ReproError)
    with pytest.raises(repro.ReproError):
        raise repro.ConfigurationError("x")
