"""Every analytic value path returns the same bits.

:class:`~repro.batch.kernel.BatchKernel` evaluates the (design row,
workload) pairs a call brings either one layer at a time through the
simulator's layer memo (the scalar path) or as (rows x layers) numpy
matrices; ``kernel._numpy_pays`` picks one per call.  Both run the one
cost formula and both total a row's layers left to right
(``layer_cost.ordered_sum``, over the numpy matrices' layer columns on
the numpy path), as the simulator's ``ExecutionReport`` does.  So on
either path ``evaluate_calls``, ``bound_calls``, one-point
``evaluate_spec`` and ``spec_bounds`` (which run the kernel's rows) and
``spec_benefit``'s per-layer reports must agree bit for bit.  A pytest
process usually has numpy loaded already, which makes the kernel pick
numpy, so each test forces the path it checks.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.batch.kernel as kernel
from repro.batch import BatchKernel
from repro.batch.pack import ROW_RESULTS, pack_point
from repro.errors import ReproError
from repro.runtime.memo import memo_table
from repro.spec import ArchSpec, DesignSpec, TechSpec, WorkloadSpec
from repro.spec.evaluate import evaluate_spec, spec_benefit, spec_calls
from repro.spec.resolve import build_workload
from repro.sweep.bounds import spec_bounds
from repro.tech.pdk import foundry_m3d_pdk
from repro.units import MEGABYTE
from repro.workloads.models import available_networks
from tests.test_batched_bounds import PINNED

NETWORKS = tuple(available_networks()) + ("tiny_encoder", "base_encoder")


@contextlib.contextmanager
def _forced_path(numpy: bool):
    """Run the block with every kernel call on one path, from cold
    ``batch.rows`` and ``spec.analytic`` memos so the path evaluates
    every row itself."""
    saved = kernel._numpy_pays
    kernel._numpy_pays = lambda cost: numpy
    memos = (ROW_RESULTS, memo_table("spec.analytic"))
    for memo in memos:
        memo.clear()
    try:
        yield
    finally:
        kernel._numpy_pays = saved
        for memo in memos:
            memo.clear()


def _row_totals(spec: DesignSpec) -> tuple:
    """The kernel's (cycles, energy) totals of a spec's 2D and M3D rows."""
    point = pack_point(spec, foundry_m3d_pdk())
    totals, _ = kernel._delta_evaluate(
        ((point.workload_key, (point.row_2d, point.row_m3d)),))
    rows = totals[point.workload_key]
    return rows[id(point.row_2d)], rows[id(point.row_m3d)]


def _report_totals(spec: DesignSpec) -> tuple:
    """``spec_benefit``'s per-layer reports, totalled, and its ratios."""
    benefit = spec_benefit(spec)
    return ((benefit.baseline.cycles, benefit.baseline.energy),
            (benefit.m3d.cycles, benefit.m3d.energy),
            benefit.speedup, benefit.energy_benefit, benefit.edp_benefit)


def _paths(specs: list) -> dict:
    """Every analytic value of ``specs``, per forced path: the kernel's
    batched calls, the one-point functions and the row totals, each
    from cold memos."""
    values = {}
    for numpy in (False, True):
        for name, evaluate in (
                ("evaluate_calls",
                 lambda: BatchKernel().evaluate_calls(spec_calls(specs))),
                ("evaluate_spec", lambda: [evaluate_spec(s) for s in specs]),
                ("bound_calls",
                 lambda: BatchKernel().bound_calls(spec_calls(specs))),
                ("spec_bounds", lambda: [spec_bounds(s) for s in specs]),
                ("rows", lambda: [_row_totals(s) for s in specs])):
            with _forced_path(numpy):
                values[name, numpy] = evaluate()
    return values


def _assert_bit_identical(left: list, right: list) -> None:
    # repr round-trips every float exactly, so equal reprs are equal bits.
    assert [repr(value) for value in left] == [repr(value) for value in right]


def _assert_one_value_per_spec(specs: list) -> None:
    values = _paths(specs)
    for name in ("evaluate_calls", "evaluate_spec", "bound_calls",
                 "spec_bounds", "rows"):
        _assert_bit_identical(values[name, False], values[name, True])
    _assert_bit_identical(values["evaluate_calls", False],
                          values["evaluate_spec", False])
    _assert_bit_identical(values["bound_calls", False],
                          values["spec_bounds", False])
    # The simulator's reports total to the kernel's rows and ratios.
    _assert_bit_identical(
        [_report_totals(spec) for spec in specs],
        [(*rows, evaluation.speedup, evaluation.energy_benefit,
          evaluation.edp_benefit)
         for rows, evaluation in zip(values["rows", False],
                                     values["evaluate_spec", False])])


# --- every path agrees bit for bit -------------------------------------------------


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
    _assert_one_value_per_spec(_network_specs(network))


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


def _raises(function, *args) -> bool:
    try:
        function(*args)
    except ReproError:
        return True
    return False


@settings(max_examples=60, deadline=None)
@given(specs=st.lists(_specs(), min_size=1, max_size=6))
def test_random_calls_are_bit_identical_on_both_paths(specs):
    # A spec the scalar pipeline rejects raises on every path, batched
    # (for the whole call) or not.
    rejected = [spec for spec in specs if _raises(spec_benefit, spec)]
    for numpy in (False, True):
        with _forced_path(numpy):
            for spec in rejected:
                assert _raises(evaluate_spec, spec)
                assert _raises(spec_bounds, spec)
            for method in ("evaluate_calls", "bound_calls"):
                assert _raises(getattr(BatchKernel(), method),
                               spec_calls(specs)) == bool(rejected)
    accepted = [spec for spec in specs if spec not in rejected]
    if accepted:
        _assert_one_value_per_spec(accepted)


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


# --- one number on every interpreter -----------------------------------------------

#: sha256 of the newline-joined ``repr(evaluate_spec(spec))`` over
#: ``core.dse.joint_grid_sweep()``, recorded on CPython 3.11, whose
#: ``sum()`` adds floats left to right.
JOINT_GRID_DIGEST = \
    "c51dd7df80db6ace53e1f77c78deb9c4ab8203f3e58ccd368b7dc9ea09f370e8"

#: A ``sitecustomize`` that installs a compensated (Neumaier) float
#: ``sum``, the algorithm ``sum()`` uses since CPython 3.12.
COMPENSATED_SUM = """
import builtins

_sum = builtins.sum


def sum(iterable, /, start=0):
    items = list(iterable)
    if type(start) not in (int, float) \\
            or not all(type(item) in (int, float) for item in items) \\
            or not any(type(item) is float for item in items):
        return _sum(items, start)
    total, compensation = float(start), 0.0
    for item in map(float, items):
        step = total + item
        if abs(total) >= abs(item):
            compensation += (total - step) + item
        else:
            compensation += (item - step) + total
        total = step
    return total + compensation if compensation else total


builtins.sum = sum
"""

#: Run under the compensated ``sum``: reads the pinned bound specs from
#: stdin and writes every value the test pins to stdout (pickled).
CHILD = """
import builtins, hashlib, pickle, sys

import repro.batch.kernel as kernel
from repro.batch.pack import ROW_RESULTS
from repro.core.dse import joint_grid_sweep
from repro.perf.layer_cost import ordered_sum
from repro.runtime.memo import memo_table
from repro.spec import ArchSpec, DesignSpec, SweepSpec
from repro.spec.evaluate import evaluate_spec, spec_benefit
from repro.sweep import run_streaming_sweep, spec_bounds

assert builtins.sum.__module__ == "sitecustomize"
specs = list(joint_grid_sweep().iter_specs())


def digest():
    text = "\\n".join(repr(evaluate_spec(spec)) for spec in specs)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


scalar = digest()
ROW_RESULTS.clear()
memo_table("spec.analytic").clear()
kernel._numpy_pays = lambda cost: True
vectorized = digest()
benefits = [spec_benefit(spec) for spec in specs]
reports_agree = all(
    (benefit.speedup, benefit.energy_benefit, benefit.edp_benefit)
    == (evaluation.speedup, evaluation.energy_benefit, evaluation.edp_benefit)
    for benefit, evaluation in zip(benefits, map(evaluate_spec, specs)))
energies = [[item.energy for item in benefit.m3d.layers]
            for benefit in benefits]
moved = sum(1 for layers in energies if sum(layers) != ordered_sum(layers))
endpoints = run_streaming_sweep(SweepSpec(
    base=DesignSpec(arch=ArchSpec(baseline="reoptimized")),
    grid={"tech.delta": [1.0, 3.0]}), prune=True).evaluations
bounds = [spec_bounds(spec) for spec in pickle.load(sys.stdin.buffer)]
pickle.dump({
    "compensated": builtins.sum([1e16, 1.0, -1e16]) == 1.0,
    "digests": (scalar, vectorized),
    "reports_agree": reports_agree,
    "moved": moved,
    "fig10c": (endpoints[0].speedup, endpoints[0].edp_benefit,
               endpoints[1].edp_benefit),
    "bounds": [(b.footprint, b.speedup_ub, b.energy_benefit_ub,
                b.edp_benefit_ub) for b in bounds],
}, sys.stdout.buffer)
"""


def test_pinned_values_hold_under_a_compensated_sum(tmp_path):
    """The joint-grid digest (on both kernel paths), ``spec_benefit``'s
    agreement with it, the fig10c endpoints and the pinned bounds are
    the same bits under a CPython 3.12-style compensated ``sum()``:
    analytic values never depend on the interpreter's ``sum``."""
    (tmp_path / "sitecustomize.py").write_text(COMPENSATED_SUM)
    src = Path(repro.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", CHILD], input=pickle.dumps(list(PINNED)),
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            (str(tmp_path), str(src)))),
        capture_output=True, check=True)
    values = pickle.loads(result.stdout)
    assert values["compensated"]
    assert values["digests"] == (JOINT_GRID_DIGEST, JOINT_GRID_DIGEST)
    assert values["reports_agree"]
    assert values["fig10c"] == (5.630007688198693, 5.685221320948279,
                                1.1859212568861623)
    assert values["bounds"] == list(PINNED.values())
    # The emulation bites: on some joint-grid point the compensated total
    # of the M3D layer energies differs from the left-to-right one.
    assert values["moved"] > 0
