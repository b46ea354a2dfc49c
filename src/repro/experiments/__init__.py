"""Experiment drivers: one module per table/figure of the paper.

Each driver registers its experiments with :mod:`repro.experiments.registry`
(uniform ``run(ctx: ExperimentContext)`` entry points, run by name through
:func:`run_experiment`).  A ``format_*`` function renders the same
rows/series the paper reports.  The CLI, the benchmark harness
(``benchmarks/``), the examples and the tests all resolve experiments
through the registry.

| Paper artifact | Driver |
|---|---|
| Fig. 2 + Obs. 2  | :mod:`repro.experiments.casestudy` |
| Fig. 5           | :mod:`repro.experiments.fig5` |
| Table I          | :mod:`repro.experiments.table1` |
| Fig. 7 / Table II| :mod:`repro.experiments.fig7` |
| Fig. 8 / Obs. 5  | :mod:`repro.experiments.fig8` |
| Fig. 9 / Obs. 6  | :mod:`repro.experiments.fig9` |
| Fig. 10 / Obs. 7-10 | :mod:`repro.experiments.fig10` |
| Obs. 3           | :mod:`repro.experiments.obs3` |

The import order below is the registration order, and therefore the order
``repro list`` and ``repro all`` present the experiments in.
"""

from repro.experiments.registry import (
    Experiment,
    ExperimentContext,
    all_experiments,
    experiment,
    experiment_names,
    get_experiment,
    registry_markdown,
    run_experiment,
)
from repro.experiments.casestudy import CaseStudyResult, format_case_study
from repro.experiments.fig5 import Fig5Row, format_fig5
from repro.experiments.table1 import Table1Row, format_table1
from repro.experiments.fig7 import Fig7Row, format_fig7
from repro.experiments.fig8 import format_fig8
from repro.experiments.fig9 import format_fig9
from repro.experiments.fig10 import (
    format_fig10c,
    format_fig10d,
    format_obs8,
    format_obs10,
)
from repro.experiments.obs3 import format_obs3
from repro.experiments.ext_dse import format_dse
from repro.experiments.ext_memtech import format_memtech
from repro.experiments.ext_beol_logic import format_beol_logic
from repro.experiments.ext_precision import format_precision
from repro.experiments.ext_batching import format_batching
from repro.experiments.folding import format_folding
from repro.experiments.reporting import format_run_report, format_table

__all__ = [
    "Experiment",
    "ExperimentContext",
    "all_experiments",
    "experiment",
    "experiment_names",
    "get_experiment",
    "registry_markdown",
    "run_experiment",
    "CaseStudyResult",
    "format_case_study",
    "Fig5Row",
    "format_fig5",
    "Table1Row",
    "format_table1",
    "Fig7Row",
    "format_fig7",
    "format_fig8",
    "format_fig9",
    "format_fig10c",
    "format_fig10d",
    "format_obs8",
    "format_obs10",
    "format_obs3",
    "format_dse",
    "format_memtech",
    "format_beol_logic",
    "format_precision",
    "format_batching",
    "format_folding",
    "format_run_report",
    "format_table",
]
