"""Framework parameter extraction and the layer-level analytical model."""

import pytest

from repro.errors import ConfigurationError
from repro.arch import baseline_2d_design, m3d_design
from repro.core.network_model import analyze_layer, analyze_network, effective_throughput
from repro.core.params import design_point, params_from_designs
from repro.perf import compare_designs, simulate
from repro.units import MEGABYTE
from repro.workloads import alexnet, build_network, resnet18


def test_params_extraction(pdk, baseline, m3d):
    params = params_from_designs(baseline, m3d, pdk)
    assert params.n_cs_m3d == 8
    assert 7.0 <= params.gamma_cells < 8.5
    assert 0 < params.gamma_perif < 1.0
    assert params.cycle_time == pytest.approx(50e-9)


def test_params_design_points(pdk, baseline, m3d):
    params = params_from_designs(baseline, m3d, pdk)
    assert params.baseline.n_cs == 1
    assert params.m3d.n_cs == 8
    assert params.m3d.bandwidth_bits_per_cycle == pytest.approx(
        8 * params.baseline.bandwidth_bits_per_cycle)


def test_params_reject_different_capacity(pdk, baseline):
    other = m3d_design(pdk, capacity_bits=32 * MEGABYTE)
    with pytest.raises(ConfigurationError, match="iso-on-chip-memory"):
        params_from_designs(baseline, other, pdk)


def test_params_reject_larger_m3d_footprint(pdk, m3d):
    small = baseline_2d_design(pdk, capacity_bits=32 * MEGABYTE)
    with pytest.raises(ConfigurationError):
        params_from_designs(small, m3d.with_n_cs(8), pdk)


def test_design_point_idle_energies_positive(pdk, baseline):
    point = design_point(baseline, pdk)
    assert point.cs_idle_energy_per_cycle > 0
    assert point.memory_idle_energy_per_cycle > 0


def test_effective_throughput_below_peak(baseline, resnet18_network):
    for layer in resnet18_network.weighted_layers():
        p_eff = effective_throughput(baseline, layer)
        assert 0 < p_eff <= baseline.cs.array.peak_macs_per_cycle


def test_effective_throughput_high_for_big_maps(baseline, resnet18_network):
    """56x56 layers amortize the fill: P_eff within ~2% of peak."""
    layer = resnet18_network.layer("L1.0 CONV1")
    p_eff = effective_throughput(baseline, layer)
    assert p_eff > 0.98 * 256


def test_analyze_layer_roofline(pdk, m3d, resnet18_network):
    result = analyze_layer(m3d, resnet18_network.layer("L3.0 CONV2"), pdk)
    assert result.cycles == pytest.approx(
        max(result.compute_cycles, result.transfer_cycles))
    assert result.used_cs == 8


def test_analyze_network_totals(pdk, baseline, resnet18_network):
    result = analyze_network(baseline, resnet18_network, pdk)
    assert result.cycles == pytest.approx(
        sum(l.cycles for l in result.layers))
    assert result.edp == pytest.approx(result.energy * result.runtime)


@pytest.mark.parametrize("name", ["resnet18", "alexnet", "vgg16c"])
def test_analytic_within_10pct_of_simulator(pdk, baseline, m3d, name):
    """The paper's Obs. 4 claim: analytical EDP benefits within 10% of the
    architectural simulator for its evaluated workloads."""
    network = build_network(name)
    sim = compare_designs(
        simulate(baseline, network, pdk), simulate(m3d, network, pdk))
    a2 = analyze_network(baseline, network, pdk)
    a3 = analyze_network(m3d, network, pdk)
    analytic_edp = (a2.runtime / a3.runtime) * (a2.energy / a3.energy)
    assert analytic_edp == pytest.approx(sim.edp_benefit, rel=0.10)


@pytest.mark.parametrize("name", ["resnet50", "resnet152"])
def test_analytic_within_20pct_for_bottleneck_resnets(pdk, baseline, m3d, name):
    """Bottleneck 1x1 convs stress the max() roofline; agreement loosens
    to 20% (documented in EXPERIMENTS.md)."""
    network = build_network(name)
    sim = compare_designs(
        simulate(baseline, network, pdk), simulate(m3d, network, pdk))
    a2 = analyze_network(baseline, network, pdk)
    a3 = analyze_network(m3d, network, pdk)
    analytic_edp = (a2.runtime / a3.runtime) * (a2.energy / a3.energy)
    assert analytic_edp == pytest.approx(sim.edp_benefit, rel=0.20)


def test_analytic_agreement_envelope_over_the_joint_grid():
    """The measured framework-vs-simulator EDP agreement across the
    36-point joint grid (capacity x delta x beta x tier pairs, ResNet-18,
    re-optimized baseline), recorded in EXPERIMENTS.md.

    The paper's 10% claim holds on 27 of the 36 points; the other 9 miss
    it by at most 15.0% (ResNet-18 at 64-128 MB with 1-2 tier pairs),
    and none misses 20%.  This states the envelope as measured: a model
    change that moves it must update this test and EXPERIMENTS.md.
    """
    from repro.core.dse import joint_grid_sweep
    from repro.spec import evaluate_spec, resolve

    misses = []
    for spec in joint_grid_sweep().iter_specs():
        point = resolve(spec, None)
        a2 = analyze_network(point.baseline, point.network, point.pdk)
        a3 = analyze_network(point.m3d, point.network, point.pdk)
        analytic_edp = (a2.runtime / a3.runtime) * (a2.energy / a3.energy)
        misses.append(abs(analytic_edp / evaluate_spec(spec).edp_benefit
                          - 1.0))
    assert len(misses) == 36
    assert 0.149 < max(misses) <= 0.150
    assert sum(miss > 0.10 for miss in misses) == 9
    assert all(miss < 0.20 for miss in misses)


def test_analyze_network_rejects_oversized(pdk, baseline):
    from repro.workloads.models import vgg16
    with pytest.raises(ConfigurationError):
        analyze_network(baseline, vgg16(), pdk)


def test_analytic_speedup_direction(pdk, baseline, m3d):
    """The analytic model must agree on who wins."""
    network = alexnet()
    a2 = analyze_network(baseline, network, pdk)
    a3 = analyze_network(m3d, network, pdk)
    assert a3.runtime < a2.runtime
