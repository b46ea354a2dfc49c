#!/usr/bin/env python3
"""Fig. 7: six accelerator architectures, two independent evaluators.

Evaluates every Table II architecture on AlexNet inference with (a) the
ZigZag-style mapping DSE and (b) the analytical framework, printing both
sets of benefits and their agreement (the paper reports <10%).
"""

from repro.experiments import ExperimentContext, run_experiment
from repro.experiments.fig7 import arch_cs_area, arch_n_cs, format_fig7
from repro.arch.table2 import table_ii_architectures
from repro.units import to_mm2


def main() -> None:
    ctx = ExperimentContext.create()
    pdk = ctx.pdk

    print("Table II architectures (all 1024 PEs, 256 MB RRAM):")
    for arch in table_ii_architectures():
        spatial = arch.spatial
        print(f"  Arch {arch.index} ({arch.name}): spatial "
              f"K={spatial.k} C={spatial.c} OX={spatial.ox} OY={spatial.oy}, "
              f"CS area {to_mm2(arch_cs_area(arch, pdk)):.1f} mm^2, "
              f"M3D N = {arch_n_cs(arch, pdk)}")
    print()
    print(format_fig7(run_experiment("fig7", ctx)))


if __name__ == "__main__":
    main()
