"""Extension studies: memory technologies, BEOL logic, precision."""

import pytest

from repro.experiments import run_experiment
from repro.experiments.ext_beol_logic import (
    cnfet_cs_fmax,
    cnfet_tier_free_area,
    extra_cnfet_cs_count,
    format_beol_logic,
)
from repro.experiments.ext_memtech import format_memtech
from repro.experiments.ext_precision import format_precision
from repro.units import MEGABYTE


@pytest.fixture(scope="module")
def memtech_rows(ctx):
    return run_experiment("ext-memtech", ctx, capacity_bits=64 * MEGABYTE)


@pytest.fixture(scope="module")
def beol_result(ctx):
    return run_experiment("ext-beol-logic", ctx, capacity_bits=64 * MEGABYTE)


@pytest.fixture(scope="module")
def precision_rows(ctx):
    return run_experiment("ext-precision", ctx, capacity_bits=64 * MEGABYTE)


# --- memory technologies ---------------------------------------------------------

def test_memtech_covers_all_beol_presets(memtech_rows):
    names = {row.evaluation.spec.tech.memory for row in memtech_rows}
    assert names == {"rram", "stt_mram", "fefet", "pcm"}


def test_memtech_rram_matches_case_study(memtech_rows, resnet18_benefit):
    rram = next(r.evaluation for r in memtech_rows
                if r.evaluation.spec.tech.memory == "rram")
    assert rram.n_cs_m3d == 8
    assert rram.edp_benefit == pytest.approx(
        resnet18_benefit.edp_benefit, rel=0.01)


def test_memtech_cs_count_tracks_gamma(memtech_rows):
    """N follows gamma_cells across technologies (Eq. 2 transferability)."""
    ordered = sorted(memtech_rows, key=lambda r: r.gamma_cells)
    cs_counts = [row.evaluation.n_cs_m3d for row in ordered]
    assert cs_counts == sorted(cs_counts)


def test_memtech_denser_cells_smaller_chips(memtech_rows):
    by_name = {row.evaluation.spec.tech.memory: row.evaluation
               for row in memtech_rows}
    assert by_name["pcm"].footprint < by_name["rram"].footprint \
        < by_name["stt_mram"].footprint


def test_memtech_all_benefit(memtech_rows):
    for row in memtech_rows:
        assert row.evaluation.edp_benefit > 3.0


def test_memtech_format(memtech_rows):
    text = format_memtech(memtech_rows)
    assert "stt_mram" in text and "gamma_cells" in text


# --- BEOL logic tier ---------------------------------------------------------------

def test_beol_free_area_is_footprint_minus_cells(pdk, baseline):
    free = cnfet_tier_free_area(pdk, 64 * MEGABYTE)
    expected = baseline.area.footprint - baseline.area.cells
    assert free == pytest.approx(expected)


def test_beol_extra_cs_count(pdk):
    assert extra_cnfet_cs_count(pdk, 64 * MEGABYTE) == 3


def test_cnfet_cs_still_meets_20mhz(pdk):
    assert cnfet_cs_fmax(pdk) > 20e6


def test_cnfet_cs_slower_than_silicon(pdk):
    from repro.experiments.ext_beol_logic import cnfet_cs_fmax
    nand = pdk.silicon_library.gate_equivalent
    si_fmax = 1.0 / (24 * nand.delay_with_load(2.0 * nand.input_capacitance))
    assert cnfet_cs_fmax(pdk) < si_fmax


def test_beol_logic_improves_benefit(beol_result):
    assert beol_result.si_cs == 8
    assert beol_result.cnfet_cs == 3
    assert beol_result.edp_benefit > beol_result.baseline_edp_benefit


def test_beol_logic_thermally_fine_at_20mhz(beol_result):
    assert beol_result.thermal_ok
    assert beol_result.temperature_rise < 1.0


def test_beol_logic_format(beol_result):
    text = format_beol_logic(beol_result)
    assert "CNFET" in text and "fmax" in text


# --- precision --------------------------------------------------------------------

def test_precision_rows(precision_rows):
    assert [row.evaluation.spec.arch.precision_bits
            for row in precision_rows] == [4, 8, 16]


def test_precision_8bit_matches_case_study(precision_rows, resnet18_benefit):
    row8 = next(r.evaluation for r in precision_rows
                if r.evaluation.spec.arch.precision_bits == 8)
    assert row8.n_cs_m3d == 8
    assert row8.edp_benefit == pytest.approx(
        resnet18_benefit.edp_benefit, rel=0.01)


def test_precision_16bit_excludes_big_models(precision_rows):
    row16 = next(r for r in precision_rows
                 if r.evaluation.spec.arch.precision_bits == 16)
    assert "resnet152" not in row16.models_fitting  # 120 MB at 16 bits
    assert "resnet18" in row16.models_fitting


def test_precision_4bit_fits_everything_that_8_does(precision_rows):
    by_bits = {row.evaluation.spec.arch.precision_bits: row
               for row in precision_rows}
    row4, row8 = by_bits[4], by_bits[8]
    assert set(row8.models_fitting) <= set(row4.models_fitting)


def test_precision_benefit_ordering(precision_rows):
    by_bits = {row.evaluation.spec.arch.precision_bits: row.evaluation
               for row in precision_rows}
    assert by_bits[4].edp_benefit >= by_bits[8].edp_benefit \
        >= by_bits[16].edp_benefit


def test_precision_format(precision_rows):
    text = format_precision(precision_rows)
    assert "4-bit" in text and "16-bit" in text
