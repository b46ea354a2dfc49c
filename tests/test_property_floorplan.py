"""Property tests of the floorplan's geometry index against plain scans.

Placements sit on a coarse lattice, so edges abut exactly, and are then
nudged by less or more than the 1e-9 m overlap tolerance, on random
subsets of three tiers, with names drawn from a small pool so that
duplicates occur.  Each fast path must agree with the scan it replaced:
the overlap sweep with a check of every pair, ``validate`` (a sweep per
tier) with the pairwise validator's verdict and error text, ``placed``
with a linear search, and ``net_hpwl`` with the point-list formula.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FloorplanError
from repro.physical.floorplan import (
    Floorplan, PlacedBlock, Rect, overlapping_pairs,
)
from repro.physical.netlist import BlockKind, Net

UNIT = 1e-6
DIE = Rect(0.0, 0.0, 12 * UNIT, 12 * UNIT)
#: A die that holds every drawn block, so only the overlap check can fail.
BIG_DIE = Rect(-UNIT, -UNIT, 20 * UNIT, 20 * UNIT)
TIERS = ("si_cmos", "rram", "cnfet")
NAMES = ("cs0", "cs0_buf", "perif0", "rram_bank0", "bus_io")

#: Nudges around the tolerance: abutting, inside it, on it, beyond it.
nudges = st.sampled_from((0.0, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9))

rects = st.builds(
    lambda x, y, w, h, dx, dy: Rect(x * UNIT + dx, y * UNIT + dy,
                                    w * UNIT, h * UNIT),
    st.integers(0, 11), st.integers(0, 11),
    st.integers(1, 5), st.integers(1, 5), nudges, nudges)

blocks = st.builds(
    PlacedBlock,
    name=st.sampled_from(NAMES),
    rect=rects,
    tiers=st.frozensets(st.sampled_from(TIERS), min_size=1),
    kind=st.sampled_from(tuple(BlockKind)),
)

placements = st.lists(blocks, max_size=12).map(tuple)


def parent_validate(plan: Floorplan) -> None:
    """The pairwise validator the sweep replaced, verbatim."""
    for block in plan.placements:
        if not plan.die.contains(block.rect):
            raise FloorplanError(
                f"{plan.name}: block {block.name} extends beyond the die")
    for i, first in enumerate(plan.placements):
        for second in plan.placements[i + 1:]:
            shared = first.tiers & second.tiers
            if shared and first.rect.overlaps(second.rect):
                raise FloorplanError(
                    f"{plan.name}: {first.name} overlaps {second.name} "
                    f"on tier(s) {sorted(shared)}")


def error_text(check, plan: Floorplan) -> str | None:
    try:
        check(plan)
    except FloorplanError as error:
        return str(error)
    return None


@settings(max_examples=300)
@given(st.lists(rects, max_size=14))
def test_overlapping_pairs_are_exactly_the_overlapping_pairs(boxes):
    expected = {(i, j) for i in range(len(boxes))
                for j in range(i + 1, len(boxes))
                if boxes[i].overlaps(boxes[j])}
    found = list(overlapping_pairs(boxes))
    assert len(found) == len(set(found))
    assert set(found) == expected


@settings(max_examples=300)
@given(placements, st.sampled_from((DIE, BIG_DIE)))
def test_validate_raises_the_pairwise_validators_text(placed, die):
    # Equal texts: the same verdict, the same first pair, the same tiers.
    plan = Floorplan(name="p", die=die, placements=placed)
    assert error_text(Floorplan.validate, plan) \
        == error_text(parent_validate, plan)


@given(placements, st.sampled_from(NAMES + ("ghost",)))
def test_placed_matches_a_linear_search(placed, name):
    plan = Floorplan(name="p", die=DIE, placements=placed)
    first = next((b for b in placed if b.name == name), None)
    if first is None:
        with pytest.raises(KeyError) as raised:
            plan.placed(name)
        assert raised.value.args == (f"no placed block named {name!r}",)
    else:
        assert plan.placed(name) is first


@given(placements.filter(bool), st.data())
def test_net_hpwl_matches_the_point_formula(placed, data):
    names = [b.name for b in placed]
    driver = data.draw(st.sampled_from(names))
    sinks = tuple(data.draw(st.lists(st.sampled_from(names), min_size=1,
                                     max_size=4)))
    net = Net(name="n", driver=driver, sinks=sinks, width_bits=8)
    plan = Floorplan(name="p", die=DIE, placements=placed)
    points = [plan.placed(net.driver).rect.center]
    points += [plan.placed(s).rect.center for s in net.sinks]
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    expected = (max(xs) - min(xs)) + (max(ys) - min(ys))
    assert plan.net_hpwl(net) == expected
    assert plan.net_hpwl(net) == expected  # the memoized answer


def test_memos_stay_out_of_equality_repr_and_pickles():
    block = PlacedBlock("cs0", Rect(0.0, 0.0, UNIT, UNIT),
                        frozenset({"si_cmos"}), BlockKind.LOGIC)
    plan = Floorplan(name="p", die=DIE, placements=(block,))
    fresh = Floorplan(name="p", die=DIE, placements=(block,))
    plan.placed("cs0")
    plan.net_hpwl(Net("n", "cs0", ("cs0",), 1))
    assert plan == fresh and hash(plan) == hash(fresh)
    assert repr(plan) == repr(fresh)
    assert pickle.dumps(plan) == pickle.dumps(fresh)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan and "_hpwl_memo" not in vars(clone)
