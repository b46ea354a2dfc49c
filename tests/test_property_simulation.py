"""Property-based tests on the simulator, mapper, and thermal models."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.thermal import ThermalStack, temperature_rise
from repro.perf.simulator import AcceleratorSimulator
from repro.tech import foundry_m3d_pdk
from repro.arch import m3d_design
from repro.workloads.layers import ConvLayer

_PDK = foundry_m3d_pdk()
_SIMULATORS = {
    n: AcceleratorSimulator(m3d_design(_PDK, n_cs=n), _PDK)
    for n in (1, 2, 4, 8, 16)
}
_k_tiles = _SIMULATORS[1].design.cs.array.k_tiles

conv_layers = st.builds(
    ConvLayer,
    name=st.just("c"),
    in_channels=st.integers(min_value=1, max_value=512),
    out_channels=st.integers(min_value=1, max_value=512),
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.sampled_from([1, 2]),
    in_size=st.integers(min_value=8, max_value=64),
    padding=st.integers(min_value=0, max_value=2),
)


@given(conv_layers, st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=60)
def test_more_cs_never_slower(layer, n_cs):
    """Adding CSs can only reduce (or hold) the layer latency."""
    small = _SIMULATORS[n_cs].run_layer(layer)
    large = _SIMULATORS[2 * n_cs].run_layer(layer)
    assert large.cycles <= small.cycles * (1 + 1e-12)


@given(conv_layers)
@settings(max_examples=60)
def test_speedup_bounded_by_partitions(layer):
    one = _SIMULATORS[1].run_layer(layer)
    eight = _SIMULATORS[8].run_layer(layer)
    assert one.cycles / eight.cycles <= min(8, _k_tiles(layer)) + 1e-9


@given(conv_layers)
@settings(max_examples=60)
def test_compute_cycles_cover_macs(layer):
    """A CS cannot beat its peak throughput on its slice of the work, nor
    the chip its weight bandwidth: the roofline's two ceilings."""
    simulator = _SIMULATORS[8]
    result = simulator.run_layer(layer)
    slice_macs = layer.macs / min(8, _k_tiles(layer))
    assert result.compute_cycles * 256 >= slice_macs * (1 - 1e-9)
    design = simulator.design
    assert result.cycles * design.total_weight_bandwidth \
        >= layer.weights * design.precision_bits * (1 - 1e-9)


@given(conv_layers)
@settings(max_examples=60)
def test_energy_positive_and_finite(layer):
    result = _SIMULATORS[8].run_layer(layer)
    assert 0 < result.energy < 1.0  # joules; a single layer is << 1 J


@given(conv_layers)
@settings(max_examples=40)
def test_dynamic_energy_work_proportional(layer):
    """Dynamic energy is identical across CS counts up to the output
    broadcast term (which grows with N)."""
    e1 = _SIMULATORS[1].run_layer(layer).dynamic_energy
    e8 = _SIMULATORS[8].run_layer(layer).dynamic_energy
    assert e8 >= e1 * (1 - 1e-12)
    # Worst case: the output-broadcast SRAM term (x(1 + N)) dominates a
    # degenerate layer entirely -> bounded by (1 + 8) / (1 + 1).
    assert e8 <= e1 * 4.5


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                max_size=12))
def test_thermal_rise_nonnegative(powers):
    assert temperature_rise(powers) >= 0.0


@given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=2,
                max_size=8))
def test_thermal_rise_monotone_in_power(powers):
    doubled = [2 * p for p in powers]
    assert temperature_rise(doubled) >= temperature_rise(powers)


@given(st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=2,
                max_size=8))
def test_thermal_sorting_heavy_tiers_down_helps(powers):
    """Placing high-power pairs closer to the heat sink minimizes rise."""
    stack = ThermalStack()
    best = temperature_rise(sorted(powers, reverse=True), stack)
    worst = temperature_rise(sorted(powers), stack)
    assert best <= worst + 1e-9
