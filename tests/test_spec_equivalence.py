"""Spec-driven runs match the legacy entry points bit-for-bit.

Every rewired study now constructs its design pair through
``resolve(DesignSpec(...))``; these tests pin the refactor by comparing
each legacy sweep against the equivalent batch of spec evaluations with
exact ``==`` — same resolver, same simulator, so the floats must be
identical, not merely close.
"""

from repro.core.dse import design_point_spec, joint_grid_sweep
from repro.core.insights import sweep_rram_capacity
from repro.core.multitier import sweep_tiers
from repro.core.relaxed_fet import sweep_fet_width
from repro.core.sensitivity import (
    sensitivity_profile,
    sensitivity_profile_from_spec,
)
from repro.core.via_pitch import sweep_via_pitch
from repro.spec import ArchSpec, DesignSpec, TechSpec, evaluate_specs
from repro.sweep import run_streaming_sweep
from repro.units import MEGABYTE

CAPACITIES = tuple(mb * MEGABYTE for mb in (16, 32, 64))
DELTAS = (1.0, 1.6, 2.0)
BETAS = (1.0, 1.3, 1.6)


def test_capacity_sweep_matches_spec_evaluations(pdk, resnet18_network):
    legacy = sweep_rram_capacity(CAPACITIES, pdk=pdk,
                                 network=resnet18_network)
    evaluations = evaluate_specs(
        [DesignSpec(arch=ArchSpec(capacity_bits=capacity))
         for capacity in CAPACITIES], pdk=pdk)
    for point, evaluation in zip(legacy, evaluations):
        assert point.capacity_bits == evaluation.spec.arch.capacity_bits
        assert point.n_cs == evaluation.n_cs_m3d
        assert point.speedup == evaluation.speedup
        assert point.edp_benefit == evaluation.edp_benefit


def test_fet_width_sweep_matches_spec_evaluations(pdk):
    legacy = sweep_fet_width(DELTAS, pdk=pdk)
    evaluations = evaluate_specs(
        [DesignSpec(tech=TechSpec(delta=delta),
                    arch=ArchSpec(baseline="reoptimized"))
         for delta in DELTAS], pdk=pdk)
    for result, evaluation in zip(legacy, evaluations):
        assert result.n_cs_2d == evaluation.n_cs_2d
        assert result.n_cs_m3d == evaluation.n_cs_m3d
        assert result.footprint == evaluation.footprint
        assert result.benefit.speedup == evaluation.speedup
        assert result.benefit.edp_benefit == evaluation.edp_benefit


def test_via_pitch_sweep_matches_spec_evaluations(pdk):
    legacy = sweep_via_pitch(BETAS, pdk=pdk)
    evaluations = evaluate_specs(
        [DesignSpec(tech=TechSpec(beta=beta),
                    arch=ArchSpec(baseline="reoptimized"))
         for beta in BETAS], pdk=pdk)
    for result, evaluation in zip(legacy, evaluations):
        assert result.n_cs_2d == evaluation.n_cs_2d
        assert result.n_cs_m3d == evaluation.n_cs_m3d
        assert result.benefit.speedup == evaluation.speedup
        assert result.benefit.edp_benefit == evaluation.edp_benefit


def test_tier_sweep_matches_spec_evaluations(pdk):
    legacy = sweep_tiers(3, pdk=pdk)
    evaluations = evaluate_specs(
        [DesignSpec(arch=ArchSpec(tier_pairs=pairs))
         for pairs in (1, 2, 3)], pdk=pdk)
    for result, evaluation in zip(legacy, evaluations):
        assert result.n_cs == evaluation.n_cs_m3d
        assert result.speedup == evaluation.speedup
        assert result.benefit.edp_benefit == evaluation.edp_benefit


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


def test_sensitivity_profile_matches_spec_route(pdk, baseline, m3d,
                                                resnet18_network):
    from repro.core.framework import Workload
    from repro.core.params import design_point

    workload = Workload(
        compute_ops=float(resnet18_network.total_macs),
        data_bits=float(resnet18_network.weight_bits(8)))
    legacy = sensitivity_profile(workload, design_point(baseline, pdk),
                                 design_point(m3d, pdk))
    from_spec = sensitivity_profile_from_spec(DesignSpec(), pdk=pdk)
    assert from_spec == legacy


def test_default_spec_matches_the_headline_benefit(pdk, resnet18_benefit):
    (evaluation,) = evaluate_specs([DesignSpec()], pdk=pdk)
    assert evaluation.speedup == resnet18_benefit.speedup
    assert evaluation.edp_benefit == resnet18_benefit.edp_benefit
