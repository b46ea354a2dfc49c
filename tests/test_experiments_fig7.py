"""Fig. 7 experiment: Table II architectures, two evaluators."""

import pytest

from repro.experiments import run_experiment
from repro.experiments.fig7 import (
    arch_cs_area,
    arch_n_cs,
    format_fig7,
)
from repro.arch.table2 import table_ii_architectures


@pytest.fixture(scope="module")
def rows(ctx):
    return run_experiment("fig7", ctx)


def test_all_six_architectures_evaluated(rows):
    assert [row.arch.index for row in rows] == [1, 2, 3, 4, 5, 6]


def test_edp_benefits_in_paper_band(rows):
    """Paper: 5.3x-11.5x across the architectures."""
    benefits = [row.mapper_edp for row in rows]
    assert min(benefits) == pytest.approx(5.3, rel=0.15)
    assert max(benefits) == pytest.approx(11.5, rel=0.15)


def test_every_arch_benefits_strongly(rows):
    for row in rows:
        assert row.mapper_edp > 5.0


def test_analytical_within_10pct_of_mapper(rows):
    """The paper's headline Fig. 7 claim."""
    for row in rows:
        assert row.edp_disagreement < 0.10, f"Arch {row.arch.index}"


def test_speedups_bounded_by_n(rows):
    for row in rows:
        assert row.mapper_speedup <= row.n_cs + 1e-9


def test_energy_benefits_near_unity(rows):
    for row in rows:
        assert 0.8 < row.mapper_energy < 1.3


def test_cs_area_varies_across_archs(pdk):
    areas = [arch_cs_area(a, pdk) for a in table_ii_architectures()]
    assert max(areas) > 1.5 * min(areas)


def test_arch3_big_registers_cost_area(pdk):
    archs = {a.index: a for a in table_ii_architectures()}
    assert arch_cs_area(archs[3], pdk) > arch_cs_area(archs[2], pdk)


def test_n_cs_respects_ceiling(pdk):
    from repro.experiments.fig7 import MAX_PARALLEL_CS
    for arch in table_ii_architectures():
        assert 1 <= arch_n_cs(arch, pdk) <= MAX_PARALLEL_CS


def test_format_contains_all_archs(rows):
    text = format_fig7(rows)
    for index in range(1, 7):
        assert f"Arch {index}" in text
    assert "disagreement" in text
