"""The batch kernel's two ways of evaluating new rows return the same bits.

:class:`~repro.batch.kernel.BatchKernel` evaluates the (design row,
workload) pairs a call brings either one layer at a time through the
simulator's layer memo (the scalar path) or as (rows x layers) numpy
matrices; ``kernel._numpy_pays`` picks one per call.  Both run the one
cost formula and both total a row's layers in numpy's pairwise order
(``kernel.pairwise_sum`` on the scalar path, ``.sum(axis=1)`` on the
numpy one), so ``evaluate_calls`` and ``bound_calls`` must return
bit-identical results whichever path ran.  A pytest process usually has
numpy loaded already, which makes the kernel pick numpy, so each test
forces the path it checks.
"""

from __future__ import annotations

import contextlib
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.batch.kernel as kernel
from repro.batch import BatchKernel
from repro.batch.pack import ROW_RESULTS, workload_stage
from repro.errors import ReproError
from repro.spec import ArchSpec, DesignSpec, TechSpec, WorkloadSpec
from repro.spec.evaluate import spec_calls
from repro.spec.resolve import build_workload
from repro.units import MEGABYTE
from repro.workloads.models import available_networks

NETWORKS = tuple(available_networks()) + ("tiny_encoder", "base_encoder")


@contextlib.contextmanager
def _forced_path(numpy: bool):
    """Run the block with every kernel call on one path, from a cold
    ``batch.rows`` memo so the path evaluates every row itself."""
    saved = kernel._numpy_pays
    kernel._numpy_pays = lambda cost: numpy
    ROW_RESULTS.clear()
    try:
        yield
    finally:
        kernel._numpy_pays = saved
        ROW_RESULTS.clear()


def _on_both_paths(method: str, specs: list) -> tuple[list, list]:
    """``BatchKernel().<method>`` over ``specs`` on the scalar path, then
    on the numpy path."""
    results = []
    for numpy in (False, True):
        with _forced_path(numpy):
            results.append(getattr(BatchKernel(), method)(spec_calls(specs)))
    return results[0], results[1]


def _assert_bit_identical(scalar: list, vectorized: list) -> None:
    # repr round-trips every float exactly, so equal reprs are equal bits.
    assert [repr(value) for value in scalar] \
        == [repr(value) for value in vectorized]


# --- the pairwise helper ---------------------------------------------------------


def test_pairwise_sum_adds_in_numpys_row_order():
    rng = random.Random(35)
    left_to_right_differs = 0
    for length in [*range(0, 300), 511, 512, 513, 1031]:
        matrix = np.array([[rng.uniform(0.0, 1.0) * 10.0 ** rng.randint(-9, 9)
                            for _ in range(length)] for _ in range(3)])
        for row, expected in zip(matrix.tolist(),
                                 matrix.sum(axis=1).tolist()):
            assert kernel.pairwise_sum(row) == expected
            left_to_right_differs += sum(row) != expected
    # The order matters: a left-to-right total would differ somewhere.
    assert left_to_right_differs > 0


# --- the two paths agree bit for bit ---------------------------------------------


def _network_specs(network: str) -> list[DesignSpec]:
    """Specs on one network: tiers, precisions and techs, a batch above
    1 and a single-layer restriction."""
    first_layer = build_workload(WorkloadSpec(network=network)).layers[0].name
    return [
        DesignSpec(tech=TechSpec(delta=delta),
                   arch=ArchSpec(capacity_bits=256 * MEGABYTE,
                                 tier_pairs=pairs, precision_bits=precision),
                   workload=WorkloadSpec(network=network, batch=batch,
                                         layer=layer))
        for delta in (1.0, 2.0)
        for pairs in (1, 4)
        for precision in (4, 8)
        for batch, layer in ((1, None), (3, None), (2, first_layer))
    ]


@pytest.mark.parametrize("network", NETWORKS)
def test_every_network_evaluates_bit_identically_on_both_paths(network):
    specs = _network_specs(network)
    scalar, vectorized = _on_both_paths("evaluate_calls", specs)
    _assert_bit_identical(scalar, vectorized)
    bounds_scalar, bounds_vectorized = _on_both_paths("bound_calls", specs)
    _assert_bit_identical(bounds_scalar, bounds_vectorized)


def test_resnet152_reaches_the_recursive_pairwise_branch():
    # More than 128 layers: numpy splits the row before summing blocks.
    assert len(workload_stage("resnet152", None).layers) > 128


@st.composite
def _specs(draw) -> DesignSpec:
    network = draw(st.sampled_from(NETWORKS))
    layers = [layer.name
              for layer in build_workload(WorkloadSpec(network=network)).layers]
    return DesignSpec(
        tech=TechSpec(delta=draw(st.sampled_from([1.0, 1.3, 1.6, 2.0])),
                      beta=draw(st.sampled_from([1.0, 1.15, 1.3]))),
        arch=ArchSpec(
            capacity_bits=draw(st.sampled_from([16, 64, 256])) * MEGABYTE,
            tier_pairs=draw(st.integers(min_value=1, max_value=8)),
            precision_bits=draw(st.sampled_from([4, 8, 16])),
            baseline=draw(st.sampled_from(["iso", "reoptimized"]))),
        workload=WorkloadSpec(
            network=network,
            batch=draw(st.integers(min_value=1, max_value=8)),
            layer=draw(st.none() | st.sampled_from(layers))))


@settings(max_examples=60, deadline=None)
@given(specs=st.lists(_specs(), min_size=1, max_size=6))
def test_random_calls_are_bit_identical_on_both_paths(specs):
    for method in ("evaluate_calls", "bound_calls"):
        try:
            scalar, vectorized = _on_both_paths(method, specs)
        except ReproError:
            # A spec the scalar pipeline rejects raises on either path.
            for numpy in (False, True):
                with _forced_path(numpy), pytest.raises(ReproError):
                    getattr(BatchKernel(), method)(spec_calls(specs))
            continue
        _assert_bit_identical(scalar, vectorized)


# --- the bound ---------------------------------------------------------------------


def test_a_call_past_the_bound_loads_numpy_and_returns_the_same_values():
    """In a process without numpy, a small call stays scalar and a call
    past the bound imports numpy; its values equal the scalar path's.
    The bound is lowered so that a 1,008-point grid passes it."""
    code = (
        "import sys\n"
        "import repro.batch.kernel as kernel\n"
        "kernel.SCALAR_BUDGET = 100\n"
        "from repro.batch import BatchKernel\n"
        "from repro.batch.pack import ROW_RESULTS\n"
        "from repro.spec import ArchSpec, DesignSpec, TechSpec\n"
        "from repro.spec.evaluate import spec_calls\n"
        "from repro.units import MEGABYTE\n"
        "grid = [DesignSpec(tech=TechSpec(delta=delta, beta=beta),\n"
        "                   arch=ArchSpec(capacity_bits=int((12 + 4.0 * i)\n"
        "                                 * MEGABYTE), tier_pairs=pairs))\n"
        "        for i in range(28) for delta in (1.0, 1.6, 2.0)\n"
        "        for beta in (1.0, 1.15, 1.3) for pairs in (1, 2, 3, 4)]\n"
        "BatchKernel().evaluate_calls(spec_calls(grid[:4]))\n"
        "small = 'numpy' in sys.modules\n"
        "spent = kernel._scalar_spent\n"
        "past = BatchKernel().evaluate_calls(spec_calls(grid))\n"
        "loaded = 'numpy' in sys.modules\n"
        "ROW_RESULTS.clear()\n"
        "kernel._numpy_pays = lambda cost: False\n"
        "scalar = BatchKernel().evaluate_calls(spec_calls(grid))\n"
        "print(small, spent > 0, loaded,\n"
        "      [repr(v) for v in past] == [repr(v) for v in scalar])\n")
    src = str(Path(repro.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True)
    assert result.stdout.split() == ["False", "True", "True", "True"]


def test_numpy_once_loaded_always_pays(monkeypatch):
    monkeypatch.setattr(kernel, "_scalar_spent", 0)
    assert "numpy" in sys.modules
    assert kernel._numpy_pays(1)
    assert kernel._scalar_spent == 0
