"""Every content key is pinned to its bytes.

Disk caches and sweep checkpoints are addressed by these keys, so an
encoder change that alters one byte silently orphans every cache and
checkpoint written before it.  The digests below were recorded before
the key encoder was consolidated; they hold every key family to the
bytes it had then:

* ``call_key`` of ``evaluate_spec`` in the ``(spec,)``, ``(spec, pdk)``
  and ``(spec,)`` + ``{"physical": True}`` shapes, and of
  ``spec_bounds``;
* ``DesignSpec.fingerprint()``, ``chunk_hash`` and ``checkpoint_key``;
* the memo keys of ``resolve``, ``tech_pdk`` and ``scaled_pdk``, and
  ``stable_key`` of each PDK.

Each family is pinned over the 36-point joint grid plus edge specs, and
against the default, a beta-scaled and a memory-swapped PDK.  A
hypothesis property holds the encoder to its definition: canonical text
is ``json.dumps(to_jsonable(x), sort_keys=True, separators=(",", ":"))``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.dse import joint_grid_sweep
from repro.runtime import keys
from repro.runtime.keys import call_key, stable_key
from repro.runtime.memo import memo_table, reset_memoization
from repro.runtime.serialize import dumps, to_jsonable
from repro.spec.design import (
    ArchSpec,
    DesignSpec,
    FlowSpec,
    TechSpec,
    WorkloadSpec,
)
from repro.spec.evaluate import evaluate_spec
from repro.spec.resolve import resolve
from repro.spec.sweep import SweepSpec, load_sweep_spec
from repro.sweep.bounds import spec_bounds
from repro.sweep.checkpoint import checkpoint_key, chunk_hash
from repro.tech.memories import memory_technology
from repro.tech.pdk import foundry_m3d_pdk
from repro.units import MEGABYTE

#: Specs past the joint grid: one per knob the grid does not move, plus
#: numeric spellings that must encode exactly as the validated value
#: (an integer delta and capacity_mb, a signed-zero activity).
EDGE_SPECS = [
    DesignSpec(),
    DesignSpec(arch=ArchSpec(n_cs=5)),
    DesignSpec(arch=ArchSpec(baseline="reoptimized", tier_pairs=3)),
    DesignSpec(arch=ArchSpec(cs="precision-scaled", precision_bits=4)),
    DesignSpec(arch=ArchSpec(cs="precision-scaled", precision_bits=16)),
    DesignSpec(workload=WorkloadSpec(network="resnet18", layer="CONV1")),
    DesignSpec(workload=WorkloadSpec(network="alexnet", batch=8)),
    DesignSpec(workload=WorkloadSpec(network="tiny_encoder", batch=4)),
    DesignSpec(tech=TechSpec(memory="stt_mram")),
    DesignSpec(tech=TechSpec(memory="fefet", delta=2.0)),
    DesignSpec(tech=TechSpec(beta=0.7)),
    DesignSpec(tech=TechSpec(delta=2, beta=1.3)),
    DesignSpec.from_jsonable({"arch": {"capacity_mb": 64}}),
    DesignSpec.from_jsonable({"arch": {"capacity_mb": 16,
                                       "baseline": "reoptimized"}}),
    DesignSpec(flow=FlowSpec(frequency_mhz=400, thermal=False,
                             legalize=False, max_power_density=2e5)),
    DesignSpec(flow=FlowSpec(activity_channel=-0.0, activity_bus=0.0,
                             thermal_grid=16, aspect_ratio=2)),
]

SPECS = list(joint_grid_sweep().iter_specs()) + EDGE_SPECS


def _pdks() -> dict:
    base = foundry_m3d_pdk()
    return {
        "default": base,
        "beta-scaled": base.with_ilv_pitch_factor(1.3),
        "memory-swapped": base.with_memory_cell(
            memory_technology("stt_mram").cell(base.node)),
    }


def _sweeps() -> list[SweepSpec]:
    examples = Path(__file__).resolve().parent.parent / "examples"
    return [joint_grid_sweep(), load_sweep_spec(str(examples / "sweep.json"))]


def _digest(keys) -> str:
    text = "\n".join(str(key) for key in keys)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_MEMOS = ("spec.resolve", "spec.tech_pdk", "spec.scaled_pdk",
          "spec.design_stage")


def _memo_keys(spec: DesignSpec, pdk) -> list[str]:
    """The resolve/tech_pdk/scaled_pdk memo keys one resolve stores."""
    for name in _MEMOS:
        memo_table(name).clear()
    resolve(spec, pdk)
    return [f"{name}={sorted(map(repr, memo_table(name)._entries))}"
            for name in _MEMOS[:3]]


def _families() -> dict[str, list]:
    pdks = _pdks()
    families: dict[str, list] = {
        "call_key(spec)": [call_key(evaluate_spec, (spec,), {})
                           for spec in SPECS],
        "call_key(spec, physical)": [
            call_key(evaluate_spec, (spec,), {"physical": True})
            for spec in SPECS],
        "call_key(spec_bounds)": [call_key(spec_bounds, (spec,), {})
                                  for spec in SPECS],
        "fingerprint": [spec.fingerprint() for spec in SPECS],
        "chunk_hash": [chunk_hash(SPECS[start:start + 8])
                       for start in range(0, len(SPECS), 8)]
        + [chunk_hash(SPECS), chunk_hash([])],
        "resolve memo(pdk=None)": [key for spec in SPECS
                                   for key in _memo_keys(spec, None)],
    }
    for name, pdk in pdks.items():
        families[f"call_key(spec, {name})"] = [
            call_key(evaluate_spec, (spec, pdk), {}) for spec in SPECS]
        families[f"call_key(spec_bounds, {name})"] = [
            call_key(spec_bounds, (spec, pdk), {}) for spec in SPECS]
        families[f"resolve memo({name})"] = [
            key for spec in SPECS for key in _memo_keys(spec, pdk)]
    families["stable_key(pdk)"] = [stable_key(pdk) for pdk in pdks.values()]
    families["checkpoint_key"] = [
        checkpoint_key(sweep, pdk=pdk, chunk_size=size, prune=prune,
                       physical=physical)
        for sweep in _sweeps()
        for pdk in (None, *pdks.values())
        for size in (8, 128)
        for prune in (False, True)
        for physical in (False, True)]
    return families


#: sha256 of the newline-joined keys of each family, recorded before the
#: encoder moved into ``repro.runtime.keys``.
PINNED_KEYS = {
    "call_key(spec)":
        "83b6caddc4a9ea907a9f3b4eae4d34273a857d87abe1750982913ca4d59e437c",
    "call_key(spec, physical)":
        "71215360b63a1c85d03157449b800068725e9089dffd01c4f7cc651faba68ec5",
    "call_key(spec_bounds)":
        "8d2b875649228c0283bb80cbebadb47b6a38a366e4545c1312b2f2d69a4c5f1a",
    "fingerprint":
        "c776011129f9cb990c344514a0aa8a047ae39927936f602a9d303af5963eee49",
    "chunk_hash":
        "f4e856df9708cc460bc5b6cac8432bfea55128aec9015454cd02cb069d44df0f",
    "resolve memo(pdk=None)":
        "9e426eaa893a94220750992842b2633bd45782266e23aca403c2628c8337d4e2",
    "call_key(spec, default)":
        "860e7a0c61b6690e1a3db5984504427810592d992291a7bbfddfd5437b1e59d1",
    "call_key(spec_bounds, default)":
        "e1ac6d6c7f62208eb072cd69cc2720e032499e4dfea27bc0cb6b0caea734e1a1",
    "resolve memo(default)":
        "9e426eaa893a94220750992842b2633bd45782266e23aca403c2628c8337d4e2",
    "call_key(spec, beta-scaled)":
        "22b4855f334c059a8648ec01f94593025738faaa88fc7221ba54a405046c6d41",
    "call_key(spec_bounds, beta-scaled)":
        "2c62848292f3003e9eae4a28bdd399c19c200d0bf2f324744e01c3047e281b8e",
    "resolve memo(beta-scaled)":
        "15ffacb3c9b11e0bfb0d04ce8e2c6063e1cabd2bc02074e3fc0ba6bea57e1b42",
    "call_key(spec, memory-swapped)":
        "70b4be469433a8c65ad4e7b38839a50733036cd41e0cc4e0c49659ce97a4fb27",
    "call_key(spec_bounds, memory-swapped)":
        "a586fbeee6d6d638c4928e90ebb52b68a15be1317a10c9e221c7cfc5f3f52ac7",
    "resolve memo(memory-swapped)":
        "8380c649cc1f78fa9ebe67244c7a41109685266c9579dfaad47e4a6b99b5b508",
    "stable_key(pdk)":
        "7db216a35d2f136da45a19f3461c42ae2aee6bdea2da0dc811aaac45bde6f950",
    "checkpoint_key":
        "8fca9096f12ff2384e0f4628d12c57afbc25f7575de83aba4aa1d69abe3b7f1f",
}


def test_keys_are_pinned():
    assert {name: _digest(keys) for name, keys in _families().items()} \
        == PINNED_KEYS


def test_edge_specs_cover_the_knobs_the_grid_holds_fixed():
    assert len(SPECS) == 36 + len(EDGE_SPECS)
    assert len({spec.fingerprint() for spec in SPECS}) == len(SPECS) - 1
    capacity_spec = EDGE_SPECS[12]
    assert capacity_spec.arch.capacity_bits == 64 * MEGABYTE
    assert capacity_spec == DesignSpec()
    assert math.copysign(1.0, EDGE_SPECS[-1].flow.activity_channel) < 0


# --- the encoder equals its definition --------------------------------------


@dataclass(frozen=True)
class _Flat:
    """A flat frozen dataclass whose fields take any JSON leaf."""

    a: Any
    b: Any


@dataclass(frozen=True)
class _Mixed:
    """A frozen dataclass whose fields are sometimes not JSON leaves."""

    a: Any
    b: Any = None


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


class _Level(IntEnum):
    LOW = 1
    HIGH = 2


#: Exact leaves plus leaf subclasses, which the encoder's exact-type leaf
#: table must not capture: each encodes as ``json.dumps`` does.
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, True, False, "1", ""]),
    st.text(max_size=8),
    st.integers().map(_Int),
    st.floats(allow_nan=True, allow_infinity=True).map(_Float),
    st.text(max_size=4).map(_Str),
    st.sampled_from(list(_Level)))

_SECTIONS = st.one_of(
    st.builds(TechSpec,
              delta=st.sampled_from([1, 1.0, 1.6, 2.0, 2]),
              beta=st.sampled_from([0.5, 1, 1.0, 1.3]),
              memory=st.sampled_from([None, "rram", "stt_mram"])),
    st.builds(ArchSpec,
              capacity_bits=st.integers(min_value=1, max_value=2 ** 40),
              tier_pairs=st.integers(min_value=1, max_value=4),
              n_cs=st.one_of(st.none(), st.integers(min_value=1,
                                                    max_value=64)),
              baseline=st.sampled_from(["iso", "reoptimized"]),
              cs=st.sampled_from(["case-study", "precision-scaled"]),
              precision_bits=st.sampled_from([4, 8, 16])),
    st.builds(WorkloadSpec,
              network=st.sampled_from(["resnet18", "alexnet"]),
              layer=st.sampled_from([None, "CONV1", "L4.1 CONV2"]),
              batch=st.integers(min_value=1, max_value=64)),
    st.builds(FlowSpec,
              activity_cs=st.sampled_from([0, 0.0, -0.0, 0.85, 1]),
              activity_channel=st.floats(min_value=0.0, max_value=1.0),
              frequency_mhz=st.sampled_from([None, 400, 400.0, 1e3]),
              legalize=st.booleans(), thermal=st.booleans(),
              thermal_grid=st.integers(min_value=4, max_value=128),
              max_power_density=st.sampled_from([None, 1, 2e5]))
)

_DESIGN_SPECS = st.builds(
    lambda sections: DesignSpec(**{
        name: section for section in sections
        for name, cls in (("tech", TechSpec), ("arch", ArchSpec),
                          ("workload", WorkloadSpec), ("flow", FlowSpec))
        if isinstance(section, cls)}),
    st.lists(_SECTIONS, max_size=4))

_OBJECTS = st.recursive(
    st.one_of(_LEAVES, _SECTIONS, _DESIGN_SPECS,
              st.builds(_Flat, a=_LEAVES, b=_LEAVES),
              st.builds(_Mixed, a=st.one_of(
                  _LEAVES, st.lists(st.integers(), max_size=2),
                  st.tuples(st.integers()), _SECTIONS), b=_LEAVES),
              st.sampled_from(list(_pdks().values()))),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(st.text(max_size=6),
                      st.sampled_from(["__tuple__", "__dataclass__"])),
            children, max_size=4),
        st.frozensets(st.integers(), max_size=3)),
    max_leaves=12)


def _reference(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))


@settings(max_examples=300, deadline=None)
@given(obj=_OBJECTS)
def test_canonical_text_is_the_sorted_json_of_the_lowering(obj):
    reference = _reference(obj)
    keys.clear_fingerprint_cache()
    assert dumps(obj) == reference  # a fresh build
    assert dumps(obj) == reference  # served from the identity cache


@settings(max_examples=100, deadline=None)
@given(spec=_DESIGN_SPECS)
def test_fingerprint_is_the_key_of_the_plain_json_form(spec):
    plain = json.dumps(["repro.spec.DesignSpec", spec.to_jsonable()],
                       sort_keys=True, separators=(",", ":"))
    expected = hashlib.sha256(plain.encode("utf-8")).hexdigest()
    assert spec.fingerprint() == expected
    assert spec.fingerprint() == expected


# --- one shared default PDK, no numpy on the serving path ----------------------


def test_default_pdk_is_one_object_per_argument_set():
    assert foundry_m3d_pdk() is foundry_m3d_pdk()
    assert foundry_m3d_pdk(cnfet_relative_drive=0.5) \
        is foundry_m3d_pdk(cnfet_relative_drive=0.5)
    assert foundry_m3d_pdk(cnfet_relative_drive=0.5) != foundry_m3d_pdk()


def test_default_resolves_share_one_design_stage():
    """``pdk=None`` resolves that vary only arch axes build the tech x CS
    stage once: every call keys it on the one default PDK object, so
    the stage memo neither misses nor pins a fresh PDK per call."""
    resolve(DesignSpec())
    reset_memoization()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(500):
            resolve(DesignSpec(arch=ArchSpec(
                capacity_bits=(16 + i) * MEGABYTE, tier_pairs=1 + i % 4)))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    stage = memo_table("spec.design_stage").stats()
    assert stage.entries == 1
    assert stage.misses == 1
    # 500 resolved points (designs, networks) retain ~3.7 MB; one PDK
    # pinned per call took it past 10 MB.
    assert retained < 6e6, retained


def test_the_serving_path_loads_no_numpy():
    code = (
        "import sys\n"
        "import repro.serve.app\n"
        "from repro.runtime.keys import call_key\n"
        "from repro.spec.design import DesignSpec\n"
        "from repro.spec.evaluate import evaluate_spec\n"
        "spec = DesignSpec()\n"
        "evaluate_spec(spec)\n"
        "call_key(evaluate_spec, (spec,), {})\n"
        "spec.fingerprint()\n"
        "print('numpy' in sys.modules)\n")
    src = str(Path(repro.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True)
    assert result.stdout.strip() == "False"


def test_threads_sharing_the_encoder_get_exact_keys(monkeypatch):
    """The server computes keys on its event loop and its executor
    threads at once.  With a tiny identity-cache bound (so clears race
    lookups) and a short switch interval, every thread still gets the
    reference key of every call."""
    monkeypatch.setattr(keys, "FINGERPRINT_CACHE_MAX_ENTRIES", 8)
    pdk = foundry_m3d_pdk()
    calls = [(spec,) for spec in SPECS] + [(spec, pdk) for spec in SPECS[:8]]

    def reference(args) -> str:
        text = json.dumps(
            ["repro.spec.evaluate.evaluate_spec",
             [to_jsonable(arg) for arg in args], {}],
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    expected = [reference(args) for args in calls]
    mismatches: list = []

    def work(seed: int) -> None:
        for round_ in range(20):
            for index in range((seed + round_) % 7, len(calls), 3):
                args = calls[index]
                if round_ % 2:  # fresh section objects, as a server parses
                    args = (DesignSpec.from_jsonable(args[0].to_jsonable()),
                            *args[1:])
                if call_key(evaluate_spec, args, {}) != expected[index]:
                    mismatches.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        keys.clear_fingerprint_cache()
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
