"""Shared fixtures.

Session-scoped where construction is pure and reused heavily (the PDK and
the case-study design pair) — everything exposed here is immutable
(frozen dataclasses), so sharing across tests is safe.  The one exception
is the experiment context: its engine is the process-wide default engine,
which every experiment run shares anyway.
"""

from __future__ import annotations

import pytest

from repro.tech import foundry_m3d_pdk
from repro.arch import baseline_2d_design, m3d_design
from repro.experiments import ExperimentContext
from repro.perf import compare_designs, simulate
from repro.spec import FlowSpec
from repro.workloads import resnet18


@pytest.fixture(scope="session")
def pdk():
    """The foundry M3D PDK stand-in."""
    return foundry_m3d_pdk()


@pytest.fixture(scope="session")
def ctx(pdk):
    """One experiment context (PDK, engine) shared by every experiment run."""
    return ExperimentContext.create(pdk=pdk)


@pytest.fixture(scope="session")
def baseline(pdk):
    """The Sec. II 2D baseline design (64 MB, 1 CS)."""
    return baseline_2d_design(pdk)


@pytest.fixture(scope="session")
def m3d(pdk):
    """The Sec. II iso-footprint M3D design (64 MB, 8 CSs)."""
    return m3d_design(pdk)


@pytest.fixture(scope="session")
def legacy_flow():
    """The flow section of the original pipeline: no clock, congestion or
    thermal stage (run it with ``strict=True`` for the original timing
    abort)."""
    return FlowSpec(clock=False, congestion=False, thermal=False)


@pytest.fixture(scope="session")
def resnet18_network():
    """ResNet-18 (the Table I / Fig. 9 workload)."""
    return resnet18()


@pytest.fixture(scope="session")
def resnet18_benefit(pdk, baseline, m3d, resnet18_network):
    """The headline ResNet-18 2D-vs-M3D benefit comparison."""
    return compare_designs(
        simulate(baseline, resnet18_network, pdk),
        simulate(m3d, resnet18_network, pdk),
    )
