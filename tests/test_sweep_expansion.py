"""Sweep expansion: ``SweepSpec.iter_specs`` and ``DesignSpec.updated``.

The digests below hash every expanded spec's fingerprint and ``repr`` in
order, so any change to the expansion — order, values, value types or
the canonical JSON behind chunk hashes and cache keys — shows up here.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ConfigurationError
from repro.spec import (
    ArchSpec,
    DesignSpec,
    FlowSpec,
    SweepSpec,
    TechSpec,
    WorkloadSpec,
    field_paths,
)
from repro.spec.design import field_key
from repro.spec.sweep import reset_duplicate_axis_warnings

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def batch_shaped_sweep(capacities: int = 480) -> SweepSpec:
    """The joint-DSE shape of the ``sweep-batch`` benchmark workload:
    distinct fractional capacities x tier pairs x precision x network."""
    return SweepSpec(base=DesignSpec(), grid={
        "arch.capacity_mb": [16 + 0.37 * i for i in range(capacities)],
        "arch.tier_pairs": [1, 2, 4, 8],
        "arch.precision_bits": [4, 8],
        "workload.network": ["resnet18", "mobilenet_v1"],
    })


def expansion_digest(sweep: SweepSpec) -> str:
    digest = hashlib.sha256()
    for spec in sweep.iter_specs():
        digest.update(f"{spec.fingerprint()} {spec!r}\n".encode("utf-8"))
    return digest.hexdigest()


#: Recorded before expansion built each spec section once.
PINNED_EXPANSIONS = {
    "sweep-batch":
        "3b4c3d020a06e6f45900a49baf2c3dad945abf9e6d72a7ef251d4cfb2ccc2b22",
    "examples/sweep.json":
        "4c5945833be4907a5316024147f197f0ca7663f1b49b57b0fd02baff8db4f4ad",
}


def test_batch_shaped_expansion_is_pinned():
    sweep = batch_shaped_sweep()
    assert len(sweep) == 7680
    assert expansion_digest(sweep) == PINNED_EXPANSIONS["sweep-batch"]


def test_example_sweep_expansion_is_pinned():
    data = json.loads((EXAMPLES / "sweep.json").read_text())
    sweep = SweepSpec.from_jsonable(data)
    assert expansion_digest(sweep) == PINNED_EXPANSIONS["examples/sweep.json"]


# --- equivalence with one override at a time ---------------------------------------
#
# The oracle is the expansion as it was before sections were built once:
# ``base.updated(changes)`` per point, where ``updated`` applied one
# dotted-path override after another through ``dataclasses.replace``.


def _oracle_updated(spec: DesignSpec, changes) -> DesignSpec:
    sections = ("tech", "arch", "workload", "flow")
    for path, value in changes.items():
        section, _, name = str(path).partition(".")
        if section not in sections or not name:
            raise ConfigurationError(
                f"unknown spec path {path!r}; valid paths: "
                f"{', '.join(field_paths())}")
        sub = getattr(spec, section)
        if name == "capacity_mb" and section == "arch":
            jsonable = sub.to_jsonable()
            del jsonable["capacity_bits"]
            jsonable["capacity_mb"] = value
            spec = replace(spec, arch=ArchSpec.from_jsonable(jsonable))
            continue
        if name not in {f.name for f in fields(sub)}:
            raise ConfigurationError(
                f"unknown spec path {path!r}; valid paths: "
                f"{', '.join(field_paths())}")
        spec = replace(spec, **{section: replace(sub, **{name: value})})
    return spec


def _oracle_iter_specs(sweep: SweepSpec):
    zip_count = len(sweep.zipped[0][1]) if sweep.zipped else 1
    grid_paths = [path for path, _ in sweep.grid]
    for index in range(zip_count):
        lockstep = {path: values[index] for path, values in sweep.zipped}
        for combo in itertools.product(
                *(values for _, values in sweep.grid)):
            changes = dict(lockstep)
            changes.update(zip(grid_paths, combo))
            yield _oracle_updated(sweep.base, changes) if changes \
                else sweep.base
    yield from sweep.points


#: Per path, valid values and invalid ones: 0 tier pairs, a bool in an
#: int field, a non-number or overflowing ``capacity_mb``, and 1 / 1.0 /
#: True side by side (equal under ``==``, not equally valid).
_VALUES = {
    "tech.delta": (1.0, 1.5, 2, 0.5, True, "x"),
    "tech.beta": (1.0, 1.3, 0.0, -1),
    "tech.memory": (None, "rram", ""),
    "arch.capacity_mb": (16, 32.5, 64, 1e-9, "big", True, float("inf")),
    "arch.capacity_bits": (2 ** 20, 8 * 2 ** 20, 0, True),
    "arch.tier_pairs": (1, 2, 4, 0, True, 1.0),
    "arch.n_cs": (None, 4, 0),
    "arch.baseline": ("iso", "reoptimized", "bogus"),
    "arch.precision_bits": (4, 8, True, 1.0),
    "workload.network": ("resnet18", "mobilenet_v1", ""),
    "workload.layer": (None, "L4.1 CONV2"),
    "workload.batch": (1, 2, 0),
    "flow.aspect_ratio": (1.0, 1.21, 0),
    "flow.legalize": (True, False, 1),
    "flow.thermal_grid": (16, 64, 2),
}
_PATHS = tuple(_VALUES)

_BASES = st.sampled_from((
    DesignSpec(),
    DesignSpec(tech=TechSpec(delta=1.6),
               arch=ArchSpec(baseline="reoptimized", tier_pairs=2)),
    DesignSpec(workload=WorkloadSpec(network="alexnet", batch=4),
               flow=FlowSpec(thermal=False)),
))


@st.composite
def _sweeps(draw):
    paths = draw(st.lists(st.sampled_from(_PATHS), unique_by=field_key,
                          max_size=4))
    split = draw(st.integers(0, len(paths)))
    length = draw(st.integers(1, 3))
    zipped = {path: draw(st.lists(st.sampled_from(_VALUES[path]),
                                  min_size=length, max_size=length))
              for path in paths[:split]}
    grid = {path: draw(st.lists(st.sampled_from(_VALUES[path]),
                                min_size=1, max_size=3))
            for path in paths[split:]}
    points = tuple(draw(st.lists(_BASES, max_size=2)))
    return draw(_BASES), grid, zipped, points


def _drain(specs):
    """``(specs yielded, exception raised or None)``."""
    out = []
    try:
        for spec in specs:
            out.append(spec)
    except Exception as error:        # noqa: BLE001 — compared below
        return out, error
    return out, None


def _assert_same(got, expected):
    specs, error = got
    oracle_specs, oracle_error = expected
    assert specs == oracle_specs
    assert [repr(spec) for spec in specs] == \
        [repr(spec) for spec in oracle_specs]
    assert [spec.fingerprint() for spec in specs] == \
        [spec.fingerprint() for spec in oracle_specs]
    assert type(error) is type(oracle_error)
    assert str(error) == str(oracle_error)


@settings(max_examples=400, deadline=None)
@given(case=_sweeps())
def test_expansion_matches_one_override_at_a_time(case):
    base, grid, zipped, points = case
    reset_duplicate_axis_warnings()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep = SweepSpec(base=base, grid=grid, zipped=zipped,
                          points=points)
        got = _drain(sweep.iter_specs())
    _assert_same(got, _drain(_oracle_iter_specs(sweep)))
    expected_warnings = [
        f"grid axis {path!r} repeats {len(values) - len(set(values))} "
        "value(s); duplicates are dropped (first occurrence wins)"
        for path, values in grid.items() if len(set(values)) < len(values)]
    assert [str(w.message) for w in caught] == expected_warnings
    if got[1] is None:
        assert len(got[0]) == len(sweep)


@st.composite
def _changes(draw):
    paths = draw(st.lists(
        st.sampled_from(_PATHS + ("arch.bogus", "nosuch.delta", "tech")),
        unique_by=field_key, max_size=5))
    return {path: draw(st.sampled_from(_VALUES.get(path, (1, "x"))))
            for path in paths}


@settings(max_examples=400, deadline=None)
@given(base=_BASES, changes=_changes())
def test_updated_matches_one_override_at_a_time(base, changes):
    def one(update):
        try:
            return [update(base, changes)], None
        except Exception as error:    # noqa: BLE001 — compared below
            return [], error

    _assert_same(one(DesignSpec.updated), one(_oracle_updated))


def test_updated_rejects_both_capacity_fields():
    with pytest.raises(ConfigurationError, match="not both"):
        DesignSpec().updated({"arch.capacity_mb": 32,
                              "arch.capacity_bits": 8})


def test_a_true_zip_value_after_1_is_still_rejected():
    sweep = SweepSpec(grid={"tech.delta": [1.0, 2.0]},
                      zipped={"arch.tier_pairs": [1, True]})
    specs, error = _drain(sweep.iter_specs())
    assert [spec.arch.tier_pairs for spec in specs] == [1, 1]
    assert isinstance(error, ConfigurationError)
    assert "arch.tier_pairs must be an integer, got True" in str(error)


# --- one axis per field ------------------------------------------------------------

@pytest.mark.parametrize("grid, zipped, paths", [
    ({"tech.delta": [1.0, 2.0]}, {"tech.delta": [3.0, 4.0]},
     ("'tech.delta'", "'tech.delta'")),
    ({"arch.capacity_mb": [32, 64]}, {"arch.capacity_bits": [8, 16]},
     ("'arch.capacity_mb'", "'arch.capacity_bits'")),
    ({"arch.capacity_bits": [8], "arch.capacity_mb": [32]}, {},
     ("'arch.capacity_bits'", "'arch.capacity_mb'")),
    ({}, {"arch.capacity_mb": [32], "arch.capacity_bits": [8]},
     ("'arch.capacity_mb'", "'arch.capacity_bits'")),
])
def test_two_axes_on_one_field_are_rejected(grid, zipped, paths):
    with pytest.raises(ConfigurationError, match="both set") as caught:
        SweepSpec(grid=grid, zipped=zipped)
    assert all(path in str(caught.value) for path in paths)


def test_cli_rejects_two_axes_on_one_field(capsys, tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"grid": {"tech.delta": [1.0, 2.0]},
                                "zip": {"tech.delta": [3.0, 4.0]}}))
    assert main(["sweep", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert "grid axis 'tech.delta' and zip axis 'tech.delta'" in err


# --- construction counts and memory ------------------------------------------------

def _counting(monkeypatch, cls, counts):
    post_init = cls.__post_init__

    def counted(self):
        counts[cls.__name__] = counts.get(cls.__name__, 0) + 1
        post_init(self)

    monkeypatch.setattr(cls, "__post_init__", counted)


def test_batch_shape_builds_each_section_once_per_combination(monkeypatch):
    sweep = batch_shaped_sweep()
    counts: dict[str, int] = {}
    for cls in (TechSpec, ArchSpec, WorkloadSpec, FlowSpec):
        _counting(monkeypatch, cls, counts)
    assert sum(1 for _ in sweep.iter_specs()) == 7680
    assert counts == {"ArchSpec": 3840, "WorkloadSpec": 2}


def test_points_share_their_unchanged_sections():
    specs = batch_shaped_sweep(capacities=2).expand()
    assert all(spec.tech is specs[0].tech for spec in specs)
    assert specs[0].arch is specs[1].arch               # network moves
    assert specs[0].workload is specs[2].workload       # cycled back


def test_walking_a_huge_grid_holds_memory_flat():
    values = tuple(1.0 + i / 1000.0 for i in range(1000))
    sweep = SweepSpec(grid={"tech.delta": values, "tech.beta": values})
    specs = sweep.iter_specs()
    for _ in itertools.islice(specs, 1000):
        pass
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        walked = sum(1 for _ in itertools.islice(specs, 200_000))
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert walked == 200_000
    assert growth < 32 * 1024
