"""Transistor models for the three device families in the M3D stack.

The foundry M3D process (Fig. 4a of the paper, [5]) provides:

* front-end-of-line (FEOL) **silicon CMOS** — the bottom tier, used for all
  compute logic and memory peripherals;
* a back-end-of-line (BEOL) **CNFET** layer — used in M3D designs for the
  RRAM access transistors (and in principle for BEOL logic);
* BEOL **RRAM** — the on-chip weight memory (modelled in :mod:`repro.tech.rram`).

The property the paper's analysis actually uses is the *drive current per
width* of each family: the RRAM access transistor must supply the cell's
program/read current, so its required width — and hence the 1T1R bit-cell
footprint — scales inversely with drive strength.  Case 1 of the analytical
framework (Sec. III-D) sweeps exactly this quantity through the width
relaxation factor delta.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.errors import require
from repro.tech import constants
from repro.tech.node import TechnologyNode


class FETKind(enum.Enum):
    """Device family of a transistor."""

    SILICON_NMOS = "si_nmos"
    SILICON_PMOS = "si_pmos"
    CNFET = "cnfet"


@dataclass(frozen=True)
class FETModel:
    """First-order FET model.

    Attributes:
        kind: Device family.
        width: Gate width in metres.
        length: Gate (channel) length in metres.
        drive_current_per_width: On-current per metre of width, A/m.
        leakage_current_per_width: Off-current per metre of width, A/m.
        beol_compatible: True when the device can be fabricated <400 C and
            therefore placed in an upper M3D tier.
    """

    kind: FETKind
    width: float
    length: float
    drive_current_per_width: float
    leakage_current_per_width: float
    beol_compatible: bool

    def __post_init__(self) -> None:
        require(self.width > 0, "FET width must be positive")
        require(self.length > 0, "FET length must be positive")
        require(self.drive_current_per_width > 0, "drive current must be positive")
        require(self.leakage_current_per_width >= 0, "leakage must be non-negative")

    @property
    def on_current(self) -> float:
        """Absolute on-current in amperes."""
        return self.drive_current_per_width * self.width

    def widened(self, factor: float) -> "FETModel":
        """Return a copy with the width scaled by ``factor`` (>0)."""
        require(factor > 0, "width factor must be positive")
        return replace(self, width=self.width * factor)

    def width_for_current(self, current: float) -> float:
        """Width in metres needed to supply ``current`` amperes of drive."""
        require(current > 0, "target current must be positive")
        return current / self.drive_current_per_width


#: Nominal Si nMOS on-current per width at the 130 nm node, A/m.
_SI_NMOS_DRIVE = 500e-6 / 1e-6
_SI_NMOS_LEAKAGE = 10e-9 / 1e-6
#: pMOS mobility penalty.
_PMOS_DRIVE_RATIO = 0.5


def silicon_nmos(node: TechnologyNode, width: float | None = None) -> FETModel:
    """Minimum-width FEOL Si nMOS (the 2D baseline's RRAM access device)."""
    w = width if width is not None else 2.0 * node.feature_size
    return FETModel(
        kind=FETKind.SILICON_NMOS,
        width=w,
        length=node.feature_size,
        drive_current_per_width=_SI_NMOS_DRIVE,
        leakage_current_per_width=_SI_NMOS_LEAKAGE,
        beol_compatible=False,
    )


def silicon_pmos(node: TechnologyNode, width: float | None = None) -> FETModel:
    """Minimum-width FEOL Si pMOS."""
    w = width if width is not None else 2.0 * node.feature_size
    return FETModel(
        kind=FETKind.SILICON_PMOS,
        width=w,
        length=node.feature_size,
        drive_current_per_width=_SI_NMOS_DRIVE * _PMOS_DRIVE_RATIO,
        leakage_current_per_width=_SI_NMOS_LEAKAGE,
        beol_compatible=False,
    )


def beol_cnfet(
    node: TechnologyNode,
    width: float | None = None,
    relative_drive: float = constants.CNFET_RELATIVE_DRIVE,
) -> FETModel:
    """BEOL CNFET as integrated in the foundry M3D process [5].

    ``relative_drive`` expresses the CNFET on-current per width relative to Si
    nMOS; foundry CNFETs are newly introduced and below their ideal drive
    (the paper's Case 1 studies tolerance to exactly this gap).
    """
    require(relative_drive > 0, "relative drive must be positive")
    w = width if width is not None else 2.0 * node.feature_size
    return FETModel(
        kind=FETKind.CNFET,
        width=w,
        length=node.feature_size,
        drive_current_per_width=_SI_NMOS_DRIVE * relative_drive,
        leakage_current_per_width=_SI_NMOS_LEAKAGE * constants.CNFET_RELATIVE_LEAKAGE,
        beol_compatible=True,
    )


def access_fet_width_relaxation(reference: FETModel, candidate: FETModel) -> float:
    """Width relaxation delta needed for ``candidate`` to match ``reference``.

    This is the paper's delta (Sec. III-D): the factor by which a BEOL access
    FET must be widened to supply the same cell current as the reference
    (Si nMOS) access device.  delta >= 1 for devices with weaker drive.
    """
    return reference.drive_current_per_width / candidate.drive_current_per_width
