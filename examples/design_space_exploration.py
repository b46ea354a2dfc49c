#!/usr/bin/env python3
"""Design-space exploration with the analytical framework (paper Sec. III).

Reproduces the four framework studies:

* Fig. 9  — RRAM capacity vs benefit (Obs. 6),
* Fig. 10c — BEOL access-FET width relaxation tolerance (Obs. 7),
* Obs. 8  — ILV via-pitch tolerance,
* Fig. 10d — interleaved compute+memory tier pairs (Obs. 9),

plus the Fig. 8 bandwidth-vs-parallelism grids (Obs. 5).
"""

from repro.experiments import ExperimentContext, run_experiment
from repro.experiments.fig8 import format_fig8
from repro.experiments.fig9 import format_fig9
from repro.experiments.fig10 import format_fig10c, format_fig10d, format_obs8


def main() -> None:
    # One context for all five studies: they share its PDK and engine.
    ctx = ExperimentContext.create()
    print(format_fig9(run_experiment("fig9", ctx)))
    print()
    print(format_fig10c(run_experiment("fig10c", ctx)))
    print()
    print(format_obs8(run_experiment("obs8", ctx)))
    print()
    print(format_fig10d(run_experiment("fig10d", ctx)))
    print()
    print(format_fig8(run_experiment("fig8", ctx)))


if __name__ == "__main__":
    main()
