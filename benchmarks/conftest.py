"""Benchmark harness support.

Each benchmark regenerates one table/figure of the paper and registers its
formatted output through :func:`_reporting.report_table`; the tables are
printed in the terminal summary (visible even under pytest's output
capture), so a ``pytest benchmarks/ --benchmark-only`` run ends with the
full set of paper-comparable tables.
"""

from __future__ import annotations

import importlib.util

import pytest

from _reporting import TABLES

from repro.experiments import ExperimentContext

if importlib.util.find_spec("pytest_benchmark") is None:
    @pytest.fixture
    def benchmark():
        """Fallback when pytest-benchmark is absent: run the target once.

        The benchmarks double as correctness checks (each asserts on the
        values it reproduces), so a plain call keeps them runnable — and
        usable as a CI perf smoke — without the plugin.
        """
        def run(fn, *args, **kwargs):
            return fn(*args, **kwargs)
        return run


@pytest.fixture(scope="session")
def ctx():
    """One experiment context (PDK, engine) shared by every benchmark."""
    return ExperimentContext.create()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not TABLES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_sep("=", "paper tables and figures (reproduced)")
    for name in sorted(TABLES):
        terminalreporter.write_line("")
        terminalreporter.write_line(TABLES[name])
