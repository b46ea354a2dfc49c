"""Experiment registry (:mod:`repro.experiments.registry`).

* every experiment module registers at least one experiment, so the CLI
  can never silently lose an artifact;
* ``run_experiment`` is the only ``run_*`` entry point the experiment
  modules define (the v1 shims stay gone);
* duplicate names are a hard error at import time;
* the markdown listing covers the whole registry (README is generated
  from it).
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro.experiments  # populates the registry
from repro.experiments.registry import (
    ExperimentContext,
    all_experiments,
    experiment,
    experiment_names,
    get_experiment,
    registry_markdown,
    run_experiment,
)

#: Package modules that host infrastructure rather than experiments.
NON_EXPERIMENT_MODULES = {"registry", "reporting"}


def experiment_modules() -> set[str]:
    """Names of the experiment-bearing modules under repro.experiments."""
    return {
        module.name
        for module in pkgutil.iter_modules(repro.experiments.__path__)
        if module.name not in NON_EXPERIMENT_MODULES
    }


class TestCompleteness:
    def test_every_module_registers_at_least_one_experiment(self):
        registered = {exp.module.removeprefix("repro.experiments.")
                      for exp in all_experiments()}
        missing = experiment_modules() - registered
        assert not missing, (
            f"experiment modules without a registered experiment: {missing}")

    def test_names_are_unique(self):
        names = experiment_names()
        assert len(names) == len(set(names))

    def test_paper_artifacts_are_registered(self):
        names = set(experiment_names())
        for required in ("casestudy", "fig5", "table1", "fig7", "fig8",
                         "fig9", "fig10c", "obs8", "fig10d", "obs10", "obs3",
                         "dse", "ext-memtech", "ext-beol-logic",
                         "ext-precision", "ext-batching", "folding"):
            assert required in names

    def test_summaries_and_formatters_present(self):
        for exp in all_experiments():
            assert exp.summary, exp.name
            assert callable(exp.run), exp.name
            assert callable(exp.formatter), exp.name

    def test_no_run_function_besides_run_experiment(self):
        """The removed ``run_<name>(pdk, ...)`` shims do not come back: no
        experiment module defines a ``run_*`` function of its own, so
        ``run_experiment`` stays the one way to run an experiment."""
        import inspect

        for info in pkgutil.iter_modules(repro.experiments.__path__):
            module = importlib.import_module(
                f"repro.experiments.{info.name}")
            defined = {
                name for name, fn in vars(module).items()
                if name.startswith("run_") and inspect.isfunction(fn)
                and fn.__module__ == module.__name__
            }
            allowed = {"run_experiment"} if info.name == "registry" else set()
            assert defined == allowed, (
                f"{module.__name__} defines {sorted(defined - allowed)}")

    def test_no_experiment_simulates_outside_the_spec_path(self):
        """Studies evaluate through ``repro.spec.evaluate`` (``evaluate_specs``
        or ``spec_benefit``), which applies every spec field: no
        experiment module imports or calls ``simulate`` or
        ``compare_designs`` itself."""
        import ast
        import inspect

        from repro.perf.compare import compare_designs
        from repro.perf.simulator import simulate

        banned = {"simulate", "compare_designs"}
        for info in pkgutil.iter_modules(repro.experiments.__path__):
            module = importlib.import_module(
                f"repro.experiments.{info.name}")
            bound = {name for name, value in vars(module).items()
                     if value is simulate or value is compare_designs}
            tree = ast.parse(inspect.getsource(module))
            used = {getattr(node, "id", None) or getattr(node, "attr", None)
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Name, ast.Attribute))}
            imported = {alias.name.rsplit(".", 1)[-1]
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        for alias in node.names}
            found = bound | ((used | imported) & banned)
            assert not found, f"{module.__name__} uses {sorted(found)}"

    def test_duplicate_registration_is_an_error(self):
        with pytest.raises(ValueError, match="already registered"):
            @experiment("fig8", "dup", formatter=str)
            def fig8_again(ctx):
                return None


class TestContext:
    def test_create_fills_defaults(self):
        ctx = ExperimentContext.create()
        assert ctx.pdk is not None
        assert ctx.engine is not None
        assert ctx.jobs is None
        assert ctx.tracer is None  # tracing off by default

    def test_create_respects_overrides(self):
        from repro.runtime.engine import EvaluationEngine
        engine = EvaluationEngine(jobs=1, use_cache=False)
        ctx = ExperimentContext.create(engine=engine, jobs=3)
        assert ctx.engine is engine
        assert ctx.jobs == 3


class TestRun:
    def test_run_formatted_matches_formatter(self):
        exp = get_experiment("obs10")
        assert exp.run_formatted() == exp.formatter(run_experiment("obs10"))

    def test_registry_driver_does_not_warn(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", DeprecationWarning)
            run_experiment("obs10")


class TestMarkdown:
    def test_listing_covers_every_experiment(self):
        text = registry_markdown()
        lines = text.splitlines()
        assert lines[0] == "| experiment | summary | module |"
        for exp in all_experiments():
            assert f"| `{exp.name}` |" in text

    def test_module_column_strips_package_prefix(self):
        assert "repro.experiments." not in registry_markdown()


def _imported_modules(path, known: set[str]) -> set[str]:
    """``repro`` modules that the file at ``path`` imports, anywhere in it.

    ``from repro.pkg import name`` counts ``repro.pkg.name`` when that is a
    module, else the package ``repro.pkg`` itself.
    """
    import ast

    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}"
                         for alias in node.names)
    return {name for name in found if name in known}


class TestReachability:
    def test_every_src_module_is_reached(self):
        """Each ``repro`` module earns its place: a non-``__init__`` module
        or an example imports it, it defines a public ``repro`` name, or
        it hosts a registered experiment.  A package ``__init__``
        re-export alone does not count, so an orphan cannot hide behind
        one."""
        from pathlib import Path

        import repro

        src = Path(repro.__file__).resolve().parent
        root = src.parent.parent
        modules = {
            ".".join(path.relative_to(src.parent).with_suffix("").parts):
                path
            for path in src.rglob("*.py")
        }
        known = set(modules)
        reached: set[str] = set()
        for name, path in modules.items():
            if path.name != "__init__.py":
                reached |= _imported_modules(path, known) - {name}
        for path in (root / "examples").glob("*.py"):
            reached |= _imported_modules(path, known)
        reached |= {getattr(getattr(repro, name), "__module__", None)
                    for name in repro.__all__}
        reached |= {exp.module for exp in all_experiments()}
        entry_points = {"__init__", "__main__"}
        orphans = sorted(
            name.removeprefix("repro.") for name, path in modules.items()
            if path.stem not in entry_points and name not in reached)
        assert not orphans, f"src modules nothing reaches: {orphans}"
