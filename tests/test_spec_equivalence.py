"""Other entry points match spec evaluations bit-for-bit.

The sweep executor and the headline comparison each reach the simulator
by their own route; these tests pin them against the equivalent batch of
spec evaluations with exact ``==`` — same resolver, same simulator, so
the floats must be identical, not merely close.
"""

from repro.core.dse import design_point_spec, joint_grid_sweep
from repro.spec import DesignSpec, evaluate_specs
from repro.sweep import run_streaming_sweep
from repro.units import MEGABYTE

DELTAS = (1.0, 1.6, 2.0)


def test_dse_grid_matches_spec_evaluations(pdk):
    capacities = (32 * MEGABYTE, 64 * MEGABYTE)
    candidates = run_streaming_sweep(
        joint_grid_sweep(capacities, DELTAS, betas=(1.0,), tier_pairs=(1,)),
        pdk=pdk).evaluations
    specs = [design_point_spec(capacity, delta=delta)
             for capacity in capacities for delta in DELTAS]
    evaluations = evaluate_specs(specs, pdk=pdk)
    assert len(candidates) == len(evaluations)
    for candidate, evaluation in zip(candidates, evaluations):
        assert candidate.spec.arch.capacity_bits == \
            evaluation.spec.arch.capacity_bits
        assert candidate.spec.tech.delta == evaluation.spec.tech.delta
        assert candidate.n_cs_m3d == evaluation.n_cs_m3d
        assert candidate.n_cs_2d == evaluation.n_cs_2d
        assert candidate.footprint == evaluation.footprint
        assert candidate.speedup == evaluation.speedup
        assert candidate.edp_benefit == evaluation.edp_benefit


def test_default_spec_matches_the_headline_benefit(pdk, resnet18_benefit):
    (evaluation,) = evaluate_specs([DesignSpec()], pdk=pdk)
    assert evaluation.speedup == resnet18_benefit.speedup
    assert evaluation.edp_benefit == resnet18_benefit.edp_benefit
