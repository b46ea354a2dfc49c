"""Placement refinement for the band floorplan.

The floorplanner packs CS slots left to right in arbitrary order; this module
is the detailed-placement step of the flow: it re-orders the CS slots inside
their band so each CS lands under/near the RRAM bank feeding its weight
channel, minimizing weight-channel wirelength (the custom M3D P&R scripts of
the paper's flow [4] perform the analogous tier-aware optimization).
"""

from __future__ import annotations

from repro.errors import require
from repro.physical.floorplan import Floorplan, PlacedBlock, Rect
from repro.physical.netlist import Netlist


def total_hpwl(floorplan: Floorplan, netlist: Netlist) -> float:
    """Total inter-block HPWL, weighted by net bus width (metre-bits)."""
    total = 0.0
    for net in netlist.nets:
        total += floorplan.net_hpwl(net) * net.width_bits
    return total


def placement_quality(floorplan: Floorplan, netlist: Netlist) -> dict[str, float]:
    """Quality metrics of a placed floorplan."""
    return {
        "hpwl_metre_bits": total_hpwl(floorplan, netlist),
        "si_utilization": floorplan.tier_utilization("si_cmos"),
        "free_si_area": floorplan.free_si_area(),
    }


def _bank_x_for_cs(netlist: Netlist, floorplan: Floorplan) -> dict[str, float]:
    """Preferred x position of each CS: the centroid of its weight bank."""
    preference: dict[str, list[float]] = {}
    for net in netlist.nets:
        if not net.name.startswith("n_weights"):
            continue
        for sink in net.sinks:
            if sink.startswith("cs") and "_buf" not in sink:
                bank_name = net.name.replace("n_weights", "rram_bank")
                x = floorplan.placed(bank_name).rect.center[0]
                preference.setdefault(sink, []).append(x)
    return {cs: sum(xs) / len(xs) for cs, xs in preference.items()}


def legalize_floorplan(floorplan: Floorplan, netlist: Netlist) -> Floorplan:
    """Re-order CS slots toward their weight banks and re-validate.

    Slots (a CS logic block plus its private buffer) are sorted by the x
    centroid of the bank feeding them, then re-packed left to right in the
    same band.  The result is a legal floorplan with equal or lower
    weight-channel wirelength.
    """
    preferences = _bank_x_for_cs(netlist, floorplan)
    cs_names = sorted(
        {b.name for b in floorplan.placements
         if b.name.startswith("cs") and not b.name.endswith("_buf")})
    if not cs_names or not preferences:
        floorplan.validate()
        return floorplan

    slots: list[tuple[str, PlacedBlock, PlacedBlock]] = []
    for cs_name in cs_names:
        slots.append((cs_name, floorplan.placed(cs_name),
                      floorplan.placed(f"{cs_name}_buf")))
    ordered = sorted(slots, key=lambda slot: preferences.get(slot[0], 0.0))

    # Re-pack the ordered slots into the same x extents the band used.
    band_y = slots[0][1].rect.y
    band_h = slots[0][1].rect.height
    x = min(min(cs.rect.x, buf.rect.x) for _, cs, buf in slots)
    moved: dict[str, Rect] = {}
    for _, *slot_blocks in ordered:
        for block in slot_blocks:
            moved[block.name] = Rect(x=x, y=band_y, width=block.rect.width,
                                     height=band_h)
            x += block.rect.width

    new_placements = tuple(
        PlacedBlock(block.name, moved[block.name], block.tiers, block.kind)
        if block.name in moved else block
        for block in floorplan.placements
    )
    result = Floorplan(name=floorplan.name, die=floorplan.die,
                       placements=new_placements, is_m3d=floorplan.is_m3d)
    result.validate()
    require(total_hpwl(result, netlist) <= total_hpwl(floorplan, netlist) + 1e-12,
            "legalization must not increase wirelength")
    return result
