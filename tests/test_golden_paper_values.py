"""Golden-value regression suite for the paper's headline numbers.

Every value here was frozen from the seed implementation *before* the
evaluation runtime (``repro.runtime``) was wired into the sweeps, so any
refactor of the execution machinery — parallelism, memoization, caching —
that silently drifts a result fails loudly.  Tolerances are tight
(``REL = 1e-9``): the pipeline is pure float arithmetic and must stay
bit-stable; only a deliberate model change may update these constants.

Pinned artifacts:

* Fig. 2 case study — 1 -> 8 CSs at iso footprint/capacity (paper Sec. II).
* Table I — all per-layer ResNet-18 rows and the 5.67x EDP total
  (paper: 5.66x; the conv-layer EDP spread covers the 5.7-7.5x headline).
* Fig. 9 — capacity sweep endpoints (1x @ 12 MB -> 6.85x @ 128 MB;
  paper: 6.8x).
* Fig. 10c / Obs. 8 / Fig. 10d — single-knob sweep endpoints.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_experiment
from repro.units import MEGABYTE

#: Relative tolerance for frozen floats (pure arithmetic, no solver noise).
REL = 1e-9

#: Frozen Table I rows: name -> (speedup, energy benefit, EDP benefit).
GOLDEN_TABLE1: dict[str, tuple[float, float, float]] = {
    "CONV1+POOL": (3.295302013422819, 0.9875476477813677, 3.25426775208491),
    "L1.0 CONV1": (3.7027300303336705, 1.0011373113593975, 3.7069411872579514),
    "L1.0 CONV2": (3.7027300303336705, 1.0011373113593975, 3.7069411872579514),
    "L1.1 CONV1": (3.7027300303336705, 1.0011373113593975, 3.7069411872579514),
    "L1.1 CONV2": (3.7027300303336705, 1.0011373113593975, 3.7069411872579514),
    "L2.0 DS": (3.3959731543624163, 0.9728216002786556, 3.3036760385301998),
    "L2.0 CONV1": (6.768402154398563, 1.009478447009852, 6.832556095560397),
    "L2.0 CONV2": (7.324803149606299, 1.0119616394740465, 7.41241980410025),
    "L2.1 CONV1": (7.324803149606299, 1.0119616394740465, 7.41241980410025),
    "L2.1 CONV2": (7.324803149606299, 1.0119616394740465, 7.41241980410025),
    "L3.0 DS": (4.764150943396227, 0.9945446081556532, 4.7381606331943855),
    "L3.0 CONV1": (7.389679715302491, 1.0132540756293351, 7.487623089125674),
    "L3.0 CONV2": (7.68093023255814, 1.01447112356004, 7.792081923009536),
    "L3.1 CONV1": (7.68093023255814, 1.01447112356004, 7.792081923009536),
    "L3.1 CONV2": (7.68093023255814, 1.01447112356004, 7.792081923009536),
    "L4.0 DS": (6.374407582938389, 1.0101852100849926, 6.439332263337986),
    "L4.0 CONV1": (7.772395487723955, 1.0188422135501622, 7.918844623299967),
    "L4.0 CONV2": (7.884317032040472, 1.0193931600571517, 8.037218854184161),
    "L4.1 CONV1": (7.884317032040472, 1.0193931600571517, 8.037218854184161),
    "L4.1 CONV2": (7.884317032040472, 1.0193931600571517, 8.037218854184161),
    "Total": (5.61835247129306, 1.0097090766661299, 5.672901486174185),
}


@pytest.fixture(scope="module")
def case_study(ctx):
    return run_experiment("casestudy", ctx, capacity_bits=64 * MEGABYTE)


@pytest.fixture(scope="module")
def table1_rows(ctx):
    return run_experiment("table1", ctx, capacity_bits=64 * MEGABYTE)


class TestFig2CaseStudy:
    def test_cs_counts(self, case_study):
        assert case_study.baseline.design.n_cs == 1
        assert case_study.m3d.design.n_cs == 8

    def test_iso_constraints(self, case_study):
        assert case_study.iso_footprint
        assert case_study.iso_capacity

    def test_footprint(self, case_study):
        assert case_study.baseline.footprint == pytest.approx(
            0.0004817637168108001, rel=REL)

    def test_obs2_power(self, case_study):
        assert case_study.peak_density_ratio == pytest.approx(
            1.0012171699435626, rel=REL)
        assert case_study.upper_tier_fraction == pytest.approx(
            0.006215085526519188, rel=REL)
        # Paper Obs. 2 bounds: <1% upper-tier power, ~+1% peak density.
        assert case_study.upper_tier_fraction < 0.01
        assert 1.0 < case_study.peak_density_ratio < 1.02


class TestTable1:
    def test_row_names_match_golden(self, table1_rows):
        assert [row.name for row in table1_rows] == list(GOLDEN_TABLE1)

    @pytest.mark.parametrize("name", list(GOLDEN_TABLE1))
    def test_row_values(self, table1_rows, name):
        row = next(r for r in table1_rows if r.name == name)
        speedup, energy, edp = GOLDEN_TABLE1[name]
        assert row.speedup == pytest.approx(speedup, rel=REL)
        assert row.energy_benefit == pytest.approx(energy, rel=REL)
        assert row.edp_benefit == pytest.approx(edp, rel=REL)

    def test_total_matches_paper_headline(self, table1_rows):
        # Paper Table I total: 5.64x / 0.99x / 5.66x; ours lands within 2%.
        total = table1_rows[-1]
        assert total.speedup == pytest.approx(5.64, rel=0.02)
        assert total.edp_benefit == pytest.approx(5.66, rel=0.02)

    def test_stage4_conv_spread_covers_headline_range(self, table1_rows):
        # The 5.7-7.5x headline range of conv-layer EDP benefits.
        edps = [r.edp_benefit for r in table1_rows
                if r.name.endswith(("CONV1", "CONV2")) and r.name != "CONV1+POOL"]
        assert min(edps) > 3.0
        assert max(edps) == pytest.approx(8.037218854184161, rel=REL)


class TestFig9Endpoints:
    def test_sweep(self, ctx):
        points = run_experiment("fig9", ctx)
        first, last = points[0], points[-1]
        assert (first.spec.arch.capacity_bits, first.n_cs_m3d) == \
            (100663296, 1)
        assert first.speedup == pytest.approx(1.0, rel=REL)
        assert first.edp_benefit == pytest.approx(1.0, rel=REL)
        assert (last.spec.arch.capacity_bits, last.n_cs_m3d) == \
            (1073741824, 16)
        assert last.speedup == pytest.approx(6.849705735189993, rel=REL)
        assert last.edp_benefit == pytest.approx(6.852184823596777, rel=REL)
        # Obs. 6: the benefit grows monotonically with capacity.
        edps = [p.edp_benefit for p in points]
        assert edps == sorted(edps)


class TestFig10Endpoints:
    def test_fig10c_fet_width(self, ctx):
        results = run_experiment("fig10c", ctx)
        first, last = results[0], results[-1]
        assert (first.spec.tech.delta, first.n_cs_2d, first.n_cs_m3d) == \
            (1.0, 1, 8)
        assert first.speedup == pytest.approx(5.630007688198693, rel=REL)
        assert first.edp_benefit == pytest.approx(5.685221320948279, rel=REL)
        assert (last.spec.tech.delta, last.n_cs_2d, last.n_cs_m3d) == \
            (3.0, 12, 20)
        assert last.edp_benefit == pytest.approx(1.1859212568861623, rel=REL)

    def test_obs8_via_pitch(self, ctx):
        rows = run_experiment("obs8", ctx)
        first, last = rows[0].evaluation, rows[-1].evaluation
        assert (first.spec.tech.beta, first.n_cs_2d, first.n_cs_m3d) == \
            (1.0, 1, 8)
        assert first.edp_benefit == pytest.approx(5.685221320948279, rel=REL)
        assert last.spec.tech.beta == 2.0
        assert rows[-1].effective_delta == pytest.approx(
            3.7636423405654185, rel=REL)
        assert (last.n_cs_2d, last.n_cs_m3d) == (18, 26)
        assert last.edp_benefit == pytest.approx(1.0987762235678598, rel=REL)

    def test_fig10d_tier_pairs(self, ctx):
        result = run_experiment("fig10d", ctx)
        net_first = result.network_sweep[0]
        net_last = result.network_sweep[-1]
        assert (net_first.spec.arch.tier_pairs, net_first.n_cs_m3d) == (1, 8)
        assert net_first.edp_benefit == pytest.approx(
            5.685221320948279, rel=REL)
        assert result.temperature_rises[0] == pytest.approx(
            0.027120710783051706, rel=REL)
        assert (net_last.spec.arch.tier_pairs, net_last.n_cs_m3d) == (6, 48)
        assert net_last.edp_benefit == pytest.approx(
            7.016232429737267, rel=REL)
        layer_last = result.parallel_layer_sweep[-1]
        assert layer_last.edp_benefit == pytest.approx(
            30.473399685570147, rel=REL)
