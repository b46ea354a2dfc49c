"""Floorplanner for the 2D baseline and M3D flows.

The floorplan is band-based, mirroring the paper's Fig. 2 layouts:

* **2D baseline** (Fig. 2b): the RRAM arrays fully block the Si tier, so the
  die stacks, top to bottom: array band, memory-peripheral band, the CS
  band *adjacent* to the arrays, and the bus/IO band.  The bands tile the
  die exactly — the 2D chip has no spare silicon.
* **M3D** (Fig. 2d): the arrays move to a partial blockage on the RRAM +
  CNFET tiers; the Si tier underneath packs the peripheral blockages, all
  N CS slots (logic + private buffer), and the bus/IO band, with the
  remaining silicon as whitespace.

Every floorplan is validated: blocks must stay on the die and must not
overlap any block that shares a tier (a sort-and-sweep per tier).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from repro.errors import FloorplanError, require
from repro.tech.pdk import PDK
from repro.arch.accelerator import AcceleratorDesign
from repro.physical.netlist import BlockKind, Net, Netlist

#: Edge tolerance of the overlap and containment tests, metres.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle (metres).

    Attributes:
        x: Left edge.
        y: Bottom edge.
        width: Extent in x.
        height: Extent in y.
    """

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        require(self.width > 0 and self.height > 0,
                "rectangle dimensions must be positive")

    @property
    def area(self) -> float:
        """Rectangle area, m^2."""
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        """Centroid (x, y)."""
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    def overlaps(self, other: "Rect", tolerance: float = TOLERANCE) -> bool:
        """True when the two rectangles share interior area."""
        return not (
            self.x + self.width <= other.x + tolerance
            or other.x + other.width <= self.x + tolerance
            or self.y + self.height <= other.y + tolerance
            or other.y + other.height <= self.y + tolerance
        )

    def contains(self, other: "Rect", tolerance: float = TOLERANCE) -> bool:
        """True when ``other`` lies inside this rectangle."""
        return (
            other.x >= self.x - tolerance
            and other.y >= self.y - tolerance
            and other.x + other.width <= self.x + self.width + tolerance
            and other.y + other.height <= self.y + self.height + tolerance
        )


@dataclass(frozen=True)
class PlacedBlock:
    """A block placed on the die.

    Attributes:
        name: Block/macro instance name.
        rect: Placed outline.
        tiers: Tier names this block blocks for placement.
        kind: Netlist block kind (for power/plot attribution).
    """

    name: str
    rect: Rect
    tiers: frozenset[str]
    kind: BlockKind


@dataclass(frozen=True)
class Floorplan:
    """A complete floorplan.

    Attributes:
        name: Design name.
        die: Die outline.
        placements: All placed blocks.
        is_m3d: True for the M3D flow.
    """

    name: str
    die: Rect
    placements: tuple[PlacedBlock, ...] = field(default_factory=tuple)
    is_m3d: bool = False

    # Name index and net-HPWL memo: one dict each, built on first use and
    # not fields, so ``==``, ``repr``, pickles and content keys skip them.
    @cached_property
    def _by_name(self) -> dict[str, PlacedBlock]:
        index: dict[str, PlacedBlock] = {}
        for block in self.placements:
            index.setdefault(block.name, block)
        return index

    @cached_property
    def _hpwl_memo(self) -> dict[int, tuple[Net, float]]:
        return {}  # id(net) -> (net, HPWL); the pinned net keeps its id

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items()
                if name not in ("_by_name", "_hpwl_memo")}

    def placed(self, name: str) -> PlacedBlock:
        """Look up a placement by block name (the first, if repeated)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no placed block named {name!r}") from None

    def net_hpwl(self, net: Net) -> float:
        """Half-perimeter wirelength of ``net``'s block centres, metres."""
        entry = self._hpwl_memo.get(id(net))
        if entry is None:
            xs, ys = zip(*[self.placed(name).rect.center
                           for name in (net.driver, *net.sinks)])
            entry = self._hpwl_memo[id(net)] = \
                (net, (max(xs) - min(xs)) + (max(ys) - min(ys)))
        return entry[1]

    def on_tier(self, tier: str) -> tuple[PlacedBlock, ...]:
        """All blocks blocking the named tier."""
        return tuple(b for b in self.placements if tier in b.tiers)

    @property
    def footprint(self) -> float:
        """Die area, m^2."""
        return self.die.area

    def tier_utilization(self, tier: str) -> float:
        """Fraction of the die blocked on one tier."""
        return sum(b.rect.area for b in self.on_tier(tier)) / self.die.area

    def free_si_area(self) -> float:
        """Unblocked Si-tier area, m^2."""
        return self.die.area * (1.0 - self.tier_utilization("si_cmos"))

    def validate(self) -> None:
        """Raise :class:`FloorplanError` on out-of-die or overlap violations."""
        for block in self.placements:
            if not self.die.contains(block.rect):
                raise FloorplanError(
                    f"{self.name}: block {block.name} extends beyond the die")
        by_tier: dict[str, list[int]] = {}
        for index, block in enumerate(self.placements):
            for tier in block.tiers:
                by_tier.setdefault(tier, []).append(index)
        pairs = [(members[i], members[j]) for members in by_tier.values()
                 for i, j in overlapping_pairs(
                     [self.placements[k].rect for k in members])]
        if pairs:
            i, j = min(pairs)  # the first pair in placement order
            first, second = self.placements[i], self.placements[j]
            raise FloorplanError(
                f"{self.name}: {first.name} overlaps {second.name} "
                f"on tier(s) {sorted(first.tiers & second.tiers)}")


def overlapping_pairs(rects: list[Rect]) -> Iterator[tuple[int, int]]:
    """Every index pair ``(i, j)``, ``i < j``, of overlapping rectangles,
    in no set order: a sweep by left edge that retires a rectangle once the
    entering left edge passes its right edge (within the tolerance)."""
    lefts = [rect.x for rect in rects]
    active: list[int] = []
    for j in sorted(range(len(rects)), key=lefts.__getitem__):
        edge = lefts[j] + TOLERANCE
        active = [i for i in active
                  if not rects[i].x + rects[i].width <= edge]
        for i in active:
            if rects[i].overlaps(rects[j]):
                yield (i, j) if i < j else (j, i)
        active.append(j)


def _band(y: float, height: float, die_width: float) -> Rect:
    return Rect(x=0.0, y=y, width=die_width, height=height)


def _pack_row(names_areas: list[tuple[str, float]], band: Rect,
              tiers: frozenset[str], kind: BlockKind) -> list[PlacedBlock]:
    """Pack blocks side by side into a band, widths proportional to area."""
    placements: list[PlacedBlock] = []
    x = band.x
    for name, area in names_areas:
        width = area / band.height
        placements.append(PlacedBlock(
            name=name,
            rect=Rect(x=x, y=band.y, width=width, height=band.height),
            tiers=tiers, kind=kind))
        x += width
    if x > band.x + band.width * (1 + 1e-9):
        raise FloorplanError("band overflow while packing blocks")
    return placements


def build_floorplan(netlist: Netlist, design: AcceleratorDesign,
                    pdk: PDK, aspect_ratio: float = 1.0) -> Floorplan:
    """Floorplan one design: band placement per the module docstring.

    ``aspect_ratio`` is the die's width/height ratio — the flow's
    floorplan-shaping knob.  The die area is fixed by the design either
    way; 1.0 keeps the historical square die.
    """
    require(aspect_ratio > 0, "aspect_ratio must be positive")
    die_area = design.area.footprint
    width = math.sqrt(die_area * aspect_ratio)
    die = Rect(x=0.0, y=0.0, width=width, height=die_area / width)

    rram_blocks = [(b.name, b.area)
                   for b in netlist.blocks_of_kind(BlockKind.RRAM_MACRO)]
    perif_blocks = [(b.name, b.area) for b in netlist.blocks.values()
                    if b.name.startswith("perif")]
    cs_blocks = [(b.name, b.area) for b in netlist.blocks.values()
                 if b.kind == BlockKind.LOGIC and b.name.startswith("cs")]
    buf_blocks = [(b.name, b.area) for b in netlist.blocks.values()
                  if b.kind == BlockKind.SRAM_MACRO]
    bus = netlist.block("bus_io")

    arrays_area = sum(area for _, area in rram_blocks)
    perif_area = sum(area for _, area in perif_blocks)
    cs_area = sum(area for _, area in cs_blocks) + sum(a for _, a in buf_blocks)
    placements: list[PlacedBlock] = []

    # Arrays band at the top of the die.  M3D arrays (RRAM + CNFET tiers) do
    # NOT block silicon, so the Si bands restart from the die top, under
    # them; 2D arrays fully block Si, so the bands stack below them.
    h_arrays = arrays_area / width
    band_arrays = _band(die.height - h_arrays, h_arrays, width)
    placements += _pack_row(
        rram_blocks, band_arrays,
        frozenset({"rram", "cnfet" if design.is_m3d else "si_cmos"}),
        BlockKind.RRAM_MACRO)
    si_top = die.height if design.is_m3d else die.height - h_arrays
    h_perif = perif_area / width
    band_perif = _band(si_top - h_perif, h_perif, width)
    placements += _pack_row(perif_blocks, band_perif,
                            frozenset({"si_cmos"}), BlockKind.LOGIC)

    # CS slots (logic + private buffer interleaved) in the next band.
    h_cs = cs_area / width
    band_cs = _band(band_perif.y - h_cs, h_cs, width)
    slot_blocks: list[tuple[str, float]] = []
    for (cs_name, cs_block_area), (buf_name, buf_area) in zip(
            sorted(cs_blocks), sorted(buf_blocks)):
        slot_blocks.append((cs_name, cs_block_area))
        slot_blocks.append((buf_name, buf_area))
    placements += _pack_row(slot_blocks, band_cs, frozenset({"si_cmos"}),
                            BlockKind.LOGIC)

    # Bus / IO band at the bottom of the die.
    h_bus = bus.area / width
    band_bus = _band(0.0, h_bus, width)
    if band_bus.y + band_bus.height > band_cs.y + 1e-9:
        raise FloorplanError(
            f"{design.name}: silicon demand exceeds the die "
            f"(needs {(arrays_area if not design.is_m3d else 0) + perif_area + cs_area + bus.area:.3e} m^2, "
            f"die is {die_area:.3e} m^2)")
    placements.append(PlacedBlock(name="bus_io", rect=band_bus,
                                  tiers=frozenset({"si_cmos"}),
                                  kind=BlockKind.IO))

    plan = Floorplan(name=design.name, die=die, placements=tuple(placements),
                     is_m3d=design.is_m3d)
    plan.validate()
    return plan
