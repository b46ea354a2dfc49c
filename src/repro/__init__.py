"""repro — reproduction of "Ultra-Dense 3D Physical Design Unlocks New
Architectural Design Points with Large Benefits" (DATE 2023).

Quickstart::

    from repro import (
        foundry_m3d_pdk, baseline_2d_design, m3d_design,
        simulate, compare_designs, resnet18,
    )

    pdk = foundry_m3d_pdk()
    baseline = baseline_2d_design(pdk)     # Si CMOS + RRAM, 1 CS
    m3d = m3d_design(pdk)                  # iso-footprint M3D, 8 CSs
    benefit = compare_designs(
        simulate(baseline, resnet18(), pdk),
        simulate(m3d, resnet18(), pdk),
    )
    print(f"EDP benefit: {benefit.edp_benefit:.2f}x")   # ~5.7x

Subpackages
-----------
* :mod:`repro.tech` — PDK stand-in: devices, RRAM, ILVs, stack-up, cells.
* :mod:`repro.arch` — accelerator architectures (case study + Table II).
* :mod:`repro.workloads` — DNN models (AlexNet, VGG, ResNet family).
* :mod:`repro.perf` — cycle-level performance/energy simulator.
* :mod:`repro.core` — the paper's analytical framework (Sec. III).
* :mod:`repro.mapper` — ZigZag-style mapping DSE (Fig. 7 comparator).
* :mod:`repro.physical` — block-level RTL-to-GDS flow (Fig. 4b).
* :mod:`repro.experiments` — one driver per paper table/figure.
* :mod:`repro.runtime` — parallel, memoized evaluation engine for sweeps.
* :mod:`repro.spec` — declarative JSON design/sweep specs.
* :mod:`repro.sweep` — streaming sweep executor with Pareto pruning.
* :mod:`repro.serve` — the ``repro serve`` HTTP evaluation server (/v1).
* :mod:`repro.faults` — deterministic fault injection for chaos tests.

The names in ``__all__`` are the **declared public API**: they follow the
semantic-versioning contract (`tests/test_public_api.py` snapshots the
surface so accidental breaks fail CI).  Everything else is internal and
may change between minor versions.
"""

from repro.errors import (
    ConfigurationError,
    EvaluationFailure,
    FloorplanError,
    MappingError,
    ModelError,
    PermanentError,
    PoisonTaskError,
    ReproError,
    TransientError,
    error_envelope,
)
from repro.faults import FaultPlan, FaultRule, injected_faults
from repro.tech import foundry_m3d_pdk
from repro.arch import baseline_2d_design, case_study_cs, m3d_design
from repro.workloads import (
    alexnet,
    build_network,
    resnet18,
    resnet34,
    resnet50,
    resnet152,
    vgg16,
)
from repro.perf import compare_designs, simulate
from repro.core import (
    DesignPoint,
    Workload,
    analyze_network,
    edp_benefit,
    energy,
    execution_time,
    speedup,
)
from repro.physical import (
    FlowOutcome,
    run_staged_flow,
)
from repro.runtime import (
    EvaluationEngine,
    ResultCache,
    RetryPolicy,
    configure,
    default_engine,
    pmap,
    stable_key,
)
from repro.spec import (
    DesignSpec,
    FlowSpec,
    SweepSpec,
    evaluate_spec,
    evaluate_specs,
    load_design_spec,
    load_sweep_spec,
)
from repro.sweep import run_streaming_sweep, stream_sweep

#: Public names resolved on first use: importing the serve stack (asyncio,
#: the HTTP server, the client) costs every ``import repro`` otherwise.
_SERVE_NAMES = frozenset({"ReproServer", "ServeClient", "ServeError",
                          "ServerConfig", "serve"})


def __getattr__(name: str):
    if name in _SERVE_NAMES:
        import repro.serve as serve

        return serve if name == "serve" else getattr(serve, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__version__ = "2.0.0"

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ModelError",
    "FloorplanError",
    "MappingError",
    "TransientError",
    "PermanentError",
    "PoisonTaskError",
    "EvaluationFailure",
    "FaultPlan",
    "FaultRule",
    "injected_faults",
    "RetryPolicy",
    "foundry_m3d_pdk",
    "baseline_2d_design",
    "m3d_design",
    "case_study_cs",
    "alexnet",
    "vgg16",
    "resnet18",
    "resnet34",
    "resnet50",
    "resnet152",
    "build_network",
    "simulate",
    "compare_designs",
    "Workload",
    "DesignPoint",
    "execution_time",
    "energy",
    "speedup",
    "edp_benefit",
    "analyze_network",
    "FlowOutcome",
    "run_staged_flow",
    "EvaluationEngine",
    "ResultCache",
    "configure",
    "default_engine",
    "pmap",
    "stable_key",
    "error_envelope",
    "DesignSpec",
    "FlowSpec",
    "SweepSpec",
    "evaluate_spec",
    "evaluate_specs",
    "load_design_spec",
    "load_sweep_spec",
    "run_streaming_sweep",
    "stream_sweep",
    "ReproServer",
    "ServerConfig",
    "ServeClient",
    "ServeError",
    "serve",
    "__version__",
]
