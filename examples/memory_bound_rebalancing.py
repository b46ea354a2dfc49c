#!/usr/bin/env python3
"""Obs. 5 in practice: spending freed silicon on bandwidth vs parallelism.

A transformer encoder at token-batch 1 is the memory-bound regime the
paper's Obs. 5 warns about; a batched CNN is the compute-bound one.  The
allocation optimizer (:mod:`repro.core.allocate`) enumerates every split of
the M3D-freed silicon between extra computing sub-systems and extra weight
channels and picks the EDP-optimal design point for each workload — and it
rediscovers the paper's rule of thumb.
"""

from repro.core.allocate import optimize_freed_silicon
from repro.core.framework import Workload
from repro.core.insights import reference_design_point
from repro.experiments import ExperimentContext, run_experiment
from repro.experiments.ext_batching import format_batching
from repro.units import MEGABYTE
from repro.workloads import resnet18
from repro.workloads.transformer import tiny_encoder


def main() -> None:
    base = reference_design_point()
    freed = 7.0  # CS-area units the case study frees at 64 MB

    # Workload profiles from the real networks (ops per weight-bit).
    cnn = resnet18()
    encoder = tiny_encoder()
    cnn_workload = Workload(compute_ops=cnn.total_macs,
                            data_bits=cnn.weight_bits())
    enc_workload = Workload(compute_ops=encoder.total_macs,
                            data_bits=encoder.weight_bits())
    print(f"ResNet-18 intensity: {cnn_workload.intensity:.1f} ops/bit "
          f"(compute-bound)")
    print(f"encoder   intensity: {enc_workload.intensity:.3f} ops/bit "
          f"(weight-bound at batch 1)")

    for name, workload in (("ResNet-18", cnn_workload),
                           ("encoder b=1", enc_workload)):
        result = optimize_freed_silicon(workload, base, freed)
        best = result.best
        print(f"\n{name}: best split of {freed:.0f} CS-units of freed Si:")
        print(f"  +{best.extra_cs} CSs, +{best.extra_channels} weight "
              f"channels -> {best.edp_benefit:.2f}x EDP "
              f"({'parallelism' if result.prefers_compute else 'bandwidth'} "
              f"wins)")

    print("\nAnd batching moves the encoder across the regimes:")
    ctx = ExperimentContext.create()
    print(format_batching(run_experiment("ext-batching", ctx,
                                         capacity_bits=64 * MEGABYTE)))


if __name__ == "__main__":
    main()
