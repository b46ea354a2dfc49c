"""Joint DSE, RRAM array internals, and the gate-level placer."""

import pytest

from repro.errors import ConfigurationError
from repro.core.dse import design_point_spec, joint_grid_sweep
from repro.physical.cellplace import (
    CellNet,
    CellNetlist,
    clustered_netlist,
    clustered_placement,
    refine_by_swaps,
    scattered_placement,
)
from repro.spec import evaluate_spec
from repro.sweep import (
    ParetoFrontier,
    dominates,
    exhaustive_frontier,
    run_streaming_sweep,
)
from repro.tech.array_internals import (
    MatGeometry,
    BankOrganization,
    optimal_mat_rows,
    organize_bank,
)
from repro.units import MEGABYTE


# --- joint DSE ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def candidates(pdk):
    return run_streaming_sweep(joint_grid_sweep(), pdk=pdk).evaluations


def _knobs(evaluation):
    spec = evaluation.spec
    return (spec.arch.capacity_bits, spec.tech.delta, spec.tech.beta,
            spec.arch.tier_pairs)


def _frontier(evaluations):
    frontier = ParetoFrontier()
    frontier.update((e.footprint, e.edp_benefit, e) for e in evaluations)
    return frontier.items()


def test_grid_is_full_factorial(candidates):
    assert len(candidates) == 3 * 3 * 2 * 2


def test_case_study_point_in_grid(candidates):
    point = next(c for c in candidates
                 if _knobs(c) == (64 * MEGABYTE, 1.0, 1.0, 1))
    assert point.n_cs_m3d == 8
    assert point.edp_benefit == pytest.approx(5.66, rel=0.05)


def test_relaxed_knobs_do_not_help(candidates):
    """delta/beta are tolerances, not improvements: the best EDP at every
    (capacity, Y) is at the nominal delta = beta = 1."""
    for capacity in (32 * MEGABYTE, 64 * MEGABYTE, 128 * MEGABYTE):
        for pairs in (1, 2):
            group = [c for c in candidates
                     if c.spec.arch.capacity_bits == capacity
                     and c.spec.arch.tier_pairs == pairs]
            best = max(group, key=lambda c: c.edp_benefit)
            nominal = next(c for c in group
                           if c.spec.tech.delta == 1.0
                           and c.spec.tech.beta == 1.0)
            assert nominal.edp_benefit >= best.edp_benefit * (1 - 1e-9)


def test_frontier_nondominated(candidates):
    frontier = _frontier(candidates)
    for point in frontier:
        assert not any(dominates(other.footprint, other.edp_benefit,
                                 point.footprint, point.edp_benefit)
                       for other in candidates)


def test_frontier_sorted_and_monotone(candidates):
    frontier = _frontier(candidates)
    footprints = [c.footprint for c in frontier]
    benefits = [c.edp_benefit for c in frontier]
    assert footprints == sorted(footprints)
    # Along the frontier, paying footprint must buy benefit.
    assert benefits == sorted(benefits)


def test_dse_table_marks_exactly_the_exhaustive_frontier(pdk):
    from repro.experiments.ext_dse import format_dse
    from repro.experiments.registry import ExperimentContext, run_experiment

    evaluations = run_experiment("dse", ExperimentContext.create(pdk=pdk))
    expected = {index for _, _, index in exhaustive_frontier(
        (e.footprint, e.edp_benefit, index)
        for index, e in enumerate(evaluations))}
    # The grid has exact ties on the frontier (equal footprint and EDP
    # benefit), and every tied member must be marked.
    steps = {(evaluations[i].footprint, evaluations[i].edp_benefit)
             for i in expected}
    assert len(steps) < len(expected)
    rows = format_dse(evaluations).splitlines()[3:]  # title, header, rule
    assert len(rows) == len(evaluations)
    marked = {index for index, row in enumerate(rows)
              if row.rstrip().endswith("*")}
    assert marked == expected


def test_dominates_semantics():
    small, better, bigger = (1.0, 5.0), (1.0, 6.0), (2.0, 6.0)
    assert dominates(*better, *small)
    assert not dominates(*small, *better)
    assert not dominates(*bigger, *better)
    assert not dominates(*better, *better)


def test_design_point_spec_grows_footprint_with_delta(pdk):
    nominal = evaluate_spec(design_point_spec(64 * MEGABYTE, delta=1.0), pdk)
    relaxed = evaluate_spec(design_point_spec(64 * MEGABYTE, delta=2.5), pdk)
    assert relaxed.footprint > nominal.footprint
    assert relaxed.n_cs_2d > 1


def _frontier_of(*points):
    frontier = ParetoFrontier()
    frontier.update(points)
    return frontier.items()


def test_frontier_single_candidate_is_itself():
    assert _frontier_of((2.0, 3.0, "only")) == ("only",)


def test_frontier_keeps_exact_duplicates():
    """Two identical points don't dominate each other (no strict edge),
    so both survive — callers see the true multiplicity of the grid."""
    frontier = _frontier_of((1.0, 5.0, "a"), (1.0, 5.0, "b"))
    assert len(frontier) == 2
    assert set(frontier) == {"a", "b"}


def test_frontier_one_axis_tie_keeps_only_the_better_point():
    """Equal footprint, different benefit: the better point dominates."""
    assert _frontier_of((1.0, 5.0, "worse"), (1.0, 6.0, "better")) == \
        ("better",)
    # Same footprint axis flipped: equal benefit, smaller footprint wins.
    assert _frontier_of((1.0, 5.0, "small"), (2.0, 5.0, "large")) == \
        ("small",)


def test_frontier_dominated_interior_point_dropped():
    # The interior point is bigger than corner a and worse than both.
    assert _frontier_of((1.0, 1.0, "corner_a"), (2.0, 0.5, "interior"),
                        (3.0, 9.0, "corner_b")) == ("corner_a", "corner_b")


# --- array internals --------------------------------------------------------------------

def test_case_study_bank_reads_in_one_cycle():
    """The chip model's 256-bit-per-cycle bank read closes at 20 MHz."""
    bank = organize_bank(int(8 * MEGABYTE), 20e6)
    assert bank.read_latency_cycles(20e6) == 1


def test_access_time_components_positive():
    mat = MatGeometry(rows=512, cols=256)
    assert 0 < mat.wordline_delay() < mat.access_time()
    assert 0 < mat.bitline_delay() < mat.access_time()


def test_access_time_grows_with_mat():
    small = MatGeometry(rows=256, cols=256)
    large = MatGeometry(rows=4096, cols=256)
    assert large.access_time() > small.access_time()


def test_bitline_delay_quadratic_in_rows():
    d1 = MatGeometry(rows=1024, cols=256).bitline_delay()
    d2 = MatGeometry(rows=2048, cols=256).bitline_delay()
    assert d2 == pytest.approx(4 * d1)


def test_optimal_rows_shrink_with_frequency():
    assert optimal_mat_rows(200e6) < optimal_mat_rows(20e6)


def test_optimal_rows_meet_budget():
    rows = optimal_mat_rows(100e6)
    assert MatGeometry(rows=rows, cols=256).meets_cycle(100e6)
    assert not MatGeometry(rows=rows * 2, cols=256).meets_cycle(100e6)


def test_bank_mat_count():
    bank = BankOrganization(capacity_bits=2 ** 20,
                            mat=MatGeometry(rows=1024, cols=256))
    assert bank.mat_count == 4


def test_bank_must_hold_a_mat():
    with pytest.raises(ConfigurationError):
        BankOrganization(capacity_bits=100,
                         mat=MatGeometry(rows=1024, cols=256))


# --- cell placement ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def netlist():
    return clustered_netlist()


def test_netlist_shape(netlist):
    assert netlist.cell_count == 256
    assert len(netlist.nets) == 16 * 24 + 48


def test_netlist_deterministic():
    assert clustered_netlist() == clustered_netlist()


def test_net_validation():
    with pytest.raises(ConfigurationError):
        CellNetlist(cell_count=2, nets=(CellNet(cells=(0, 5)),))


def test_placements_legal(netlist):
    scattered_placement(netlist).validate()
    clustered_placement(netlist, 16).validate()


def test_clustered_beats_scattered(netlist):
    """Placing clusters contiguously exploits the locality in the netlist."""
    scattered = scattered_placement(netlist)
    clustered = clustered_placement(netlist, 16)
    assert clustered.hpwl() < 0.5 * scattered.hpwl()


def test_refinement_improves_scattered(netlist):
    scattered = scattered_placement(netlist)
    refined = refine_by_swaps(scattered, passes=3)
    assert refined.hpwl() < scattered.hpwl()
    refined.validate()


def test_refinement_never_worsens(netlist):
    start = clustered_placement(netlist, 16)
    refined = refine_by_swaps(start, passes=1)
    assert refined.hpwl() <= start.hpwl()


def test_average_net_length_matches_rent_scale(netlist):
    """The placed average net length stays within the short-local-wire
    regime the flow's Rent estimate assumes (a few site pitches)."""
    placed = refine_by_swaps(clustered_placement(netlist, 16), passes=2)
    assert placed.average_net_length() < 8.0
