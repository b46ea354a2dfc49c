"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro list                 # show available experiments
    python -m repro list --markdown      # ...as a GitHub-markdown table
    python -m repro table1               # Table I
    python -m repro fig5 fig9            # several at once
    python -m repro all                  # everything
    python -m repro dse --jobs 4 --trace out.json   # traced parallel run
    python -m repro eval --spec examples/spec.json   # one declarative point
    python -m repro flow --spec examples/flow.json   # staged physical flow
    python -m repro sweep --spec examples/sweep.json # a declarative sweep
    python -m repro sweep --spec sweep.json --physical --prune  # + feasibility
    python -m repro fig9 --spec my_spec.json         # retarget an experiment
    python -m repro serve --port 8348 --cache-dir /tmp/repro-cache  # HTTP API

Experiments resolve through :mod:`repro.experiments.registry`: every run
builds **one** :class:`~repro.experiments.registry.ExperimentContext`
(shared PDK + engine), so memo tables and the result cache are shared
across the experiments of an invocation.  ``--profile`` / ``--trace`` /
``--trace-csv`` / ``--metrics`` switch on the observability layer
(:mod:`repro.obs`) for the run; it is off — and zero-cost — otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

import repro.experiments  # noqa: F401  (imports populate the registry)
from repro.experiments.registry import (
    ExperimentContext,
    all_experiments,
    experiment_names,
    get_experiment,
    registry_markdown,
)
from repro.experiments.reporting import format_table


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of the DATE 2023 ultra-dense "
                    "3D physical design paper.",
    )
    parser.add_argument(
        "experiments", nargs="*", metavar="EXPERIMENT",
        help="experiment names (see 'list'), or 'all'")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parallel evaluation workers for sweeps "
             "(1 = serial, 0 = one per CPU)")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist evaluation results as JSON under DIR; a warm "
             "directory serves repeat runs without re-evaluating")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable result memoization entirely")
    parser.add_argument(
        "--runtime-stats", action="store_true",
        help="print per-stage cache/parallelism statistics after running")
    parser.add_argument(
        "--profile", action="store_true",
        help="print per-experiment wall time, the top trace spans, and "
             "per-stage evaluation counts and cache/memo/dedup hit rates")
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome-trace JSON of the run (open in Perfetto or "
             "chrome://tracing); worker spans appear as separate lanes")
    parser.add_argument(
        "--trace-csv", default=None, metavar="PATH",
        help="write the flat span table (name, depth, worker, timings) "
             "as CSV to PATH")
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the run's metrics in Prometheus text format to PATH")
    parser.add_argument(
        "--markdown", action="store_true",
        help="with 'list': print the experiment table as GitHub markdown")
    parser.add_argument(
        "--spec", default=None, metavar="PATH",
        help="JSON design spec: required by 'eval'/'sweep', and the base "
             "design point every named experiment derives from")
    parser.add_argument(
        "--stream", action="store_true",
        help="with 'sweep': report the run as a stream, with a summary "
             "line of chunks, pruned and resumed points and frontier size "
             "(implied by --checkpoint-dir, --prune and a nonzero "
             "--max-failures); every sweep is evaluated chunk by chunk "
             "either way")
    parser.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="points per sweep chunk (default 64)")
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist completed chunks under DIR; re-running the same "
             "sweep resumes after the last completed chunk")
    parser.add_argument(
        "--prune", action="store_true",
        help="skip grid points certifiably dominated on (footprint, EDP "
             "benefit) — exact: the surviving frontier equals the "
             "exhaustive one")
    parser.add_argument(
        "--max-failures", type=int, default=0, metavar="N",
        help="with 'sweep': tolerate up to N failed points, "
             "recording each as a structured failure instead of aborting "
             "(0 = strict, -1 = unlimited); failed points land in the "
             "checkpoint and are retried on resume")
    parser.add_argument(
        "--batch", action="store_true",
        help="with 'eval'/'sweep': evaluate points through the vectorized "
             "batch kernel (implied by --batch-size)")
    parser.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="points packed per batch-kernel invocation; with 'sweep' it "
             "is the chunk size unless --chunk-size is given (default 64)")
    parser.add_argument(
        "--physical", action="store_true",
        help="with 'eval'/'sweep': run every point through the staged "
             "physical flow and report per-point feasibility (infeasible "
             "points are results, not errors; they stay out of the "
             "Pareto frontier)")
    parser.add_argument(
        "--json", action="store_true",
        help="machine-readable failures: print the structured error "
             "envelope {error: {type, message, path}} on stderr instead "
             "of prose (exit code 2 either way)")
    parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="with 'serve': bind address (default 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="with 'serve': bind port (default 8348, 0 = ephemeral)")
    parser.add_argument(
        "--max-pending", type=int, default=1024, metavar="N",
        help="with 'serve': admitted-but-unfinished request budget; "
             "beyond it requests get 429 + Retry-After (default 1024)")
    parser.add_argument(
        "--quota-rate", type=float, default=0.0, metavar="R",
        help="with 'serve': per-client request rate limit in requests/s "
             "(token bucket keyed by X-Client-Id; 0 = unlimited)")
    parser.add_argument(
        "--quota-burst", type=int, default=64, metavar="N",
        help="with 'serve': per-client token-bucket burst size "
             "(default 64)")
    parser.add_argument(
        "--request-timeout", type=float, default=0.0, metavar="S",
        help="with 'serve': per-request deadline in seconds (504 beyond "
             "it; sweep streams bound each inter-chunk gap; 0 = off)")
    parser.add_argument(
        "--drain-seconds", type=float, default=10.0, metavar="S",
        help="with 'serve': how long a SIGTERM drain waits for in-flight "
             "requests and open streams before exiting (default 10)")
    return parser


def _fail(args: argparse.Namespace, error: "BaseException | str",
          prefix: str = "") -> int:
    """Report a CLI failure and return exit code 2.

    Under ``--json`` the failure is the same structured envelope the
    server emits (``{"error": {"type", "message", "path"}}``, one line on
    stderr); otherwise it is the human-readable message.
    """
    if getattr(args, "json", False):
        import json as _json

        from repro.errors import envelope, error_envelope

        document = error_envelope(error) if isinstance(error, BaseException) \
            else envelope("cli_error", str(error))
        print(_json.dumps(document), file=sys.stderr)
    else:
        print(f"{prefix}{error}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Ctrl-C exits 130 after terminating any live worker pool, so an
    interrupted parallel sweep leaves no orphaned forkserver workers.
    """
    try:
        return _main(argv)
    except KeyboardInterrupt:
        from repro.runtime.pmap import shutdown_pool

        shutdown_pool(wait=False)
        print("interrupted", file=sys.stderr)
        return 130


def _main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.no_cache and args.cache_dir:
        return _fail(args, "--no-cache and --cache-dir are mutually "
                           "exclusive")
    if args.jobs < 0:
        return _fail(args, "--jobs must be >= 0 (1 = serial, 0 = one "
                           "per CPU)")
    for flag, size in (("--chunk-size", args.chunk_size),
                       ("--batch-size", args.batch_size)):
        if size is not None and size < 1:
            return _fail(args, f"{flag} must be >= 1")
    from repro.runtime.engine import configure

    engine = configure(jobs=args.jobs, cache_dir=args.cache_dir,
                       use_cache=not args.no_cache)
    show_stats = (args.runtime_stats or args.profile
                  or args.cache_dir is not None)
    names = args.experiments or ["list"]
    if names == ["validate"]:
        from repro.validate import main as validate_main
        return validate_main()
    if names == ["report"]:
        from repro.report import main as report_main
        return report_main()
    if names == ["serve"]:
        return _run_serve(args, engine)
    if names == ["flow"]:
        return _run_flow_command(args, engine, show_stats)
    if names in (["eval"], ["sweep"]):
        return _run_spec_command(names[0], args, engine, show_stats)
    if names == ["list"]:
        if args.markdown:
            print(registry_markdown())
            return 0
        print("available experiments:")
        for exp in all_experiments():
            print(f"  {exp.name:10s} {exp.summary}")
        print("  all        run every experiment")
        print("  eval       evaluate one design spec (--spec spec.json)")
        print("  flow       staged physical flow on one spec (--spec "
              "spec.json)")
        print("  sweep      expand + evaluate a sweep spec (--spec sweep.json)")
        print("  validate   check every headline claim against the paper")
        print("  report     full reproduction report (tables + validation)")
        print("  serve      HTTP evaluation server (/v1 API; see --port)")
        return 0
    known = experiment_names()
    if names == ["all"]:
        names = list(known)
    unknown = [name for name in names if name not in known]
    if unknown:
        return _fail(args, f"unknown experiment(s): {', '.join(unknown)}; "
                           f"try 'python -m repro list'")

    observe = bool(args.profile or args.trace or args.trace_csv
                   or args.metrics)
    if observe:
        from repro.obs.trace import trace
        observation = trace()
    else:
        observation = contextlib.nullcontext(None)

    from repro.errors import ReproError

    base_spec = None
    if args.spec is not None:
        from repro.spec import load_design_spec
        try:
            base_spec = load_design_spec(args.spec)
        except (OSError, ValueError, ReproError) as error:
            return _fail(args, error, prefix=f"bad --spec {args.spec}: ")

    timings: list[tuple[str, float]] = []
    with observation as tracer:
        ctx = ExperimentContext.create(engine=engine, tracer=tracer,
                                       spec=base_spec)
        for index, name in enumerate(names):
            if index:
                print()
            started = time.perf_counter()
            try:
                print(get_experiment(name).run_formatted(ctx))
            except ReproError as error:
                return _fail(args, error, prefix=f"{name}: ")
            timings.append((name, time.perf_counter() - started))
        # Snapshot inside the context so the report carries the trace.
        report = engine.report()

    if args.profile:
        print()
        print(format_table(
            "Experiment wall time",
            ["experiment", "wall time"],
            [[name, f"{elapsed:.3f} s"] for name, elapsed in timings],
        ))
        top = report.top_spans()
        if top:
            from repro.experiments.reporting import format_top_spans
            print()
            print(format_top_spans(top))
    if show_stats:
        from repro.experiments.reporting import format_run_report

        print()
        print(format_run_report(report))
    if observe:
        _export_observations(args, tracer)
    return 0


def _run_serve(args: argparse.Namespace, engine) -> int:
    """Run the ``serve`` pseudo-command: the /v1 evaluation server.

    The engine was already configured from ``--jobs`` / ``--cache-dir``
    / ``--no-cache``, so a warm cache directory is what every client
    shares.
    """
    from repro.serve import ServerConfig, serve
    from repro.serve.app import DEFAULT_PORT
    from repro.sweep import DEFAULT_CHUNK_SIZE

    if args.port is not None and not (0 <= args.port <= 65535):
        return _fail(args, "--port must be in [0, 65535] (0 = ephemeral)")
    if args.max_pending < 1:
        return _fail(args, "--max-pending must be >= 1")
    if args.quota_rate < 0:
        return _fail(args, "--quota-rate must be >= 0 (0 = unlimited)")
    if args.quota_burst < 1:
        return _fail(args, "--quota-burst must be >= 1")
    if args.request_timeout < 0:
        return _fail(args, "--request-timeout must be >= 0 (0 = off)")
    if args.drain_seconds < 0:
        return _fail(args, "--drain-seconds must be >= 0")
    config = ServerConfig(
        host=args.host,
        port=args.port if args.port is not None else DEFAULT_PORT,
        max_pending=args.max_pending,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        chunk_size=args.chunk_size if args.chunk_size is not None
        else DEFAULT_CHUNK_SIZE,
        request_timeout=args.request_timeout,
        drain_seconds=args.drain_seconds,
    )
    serve(config, engine=engine)
    return 0


def _run_flow_command(args: argparse.Namespace, engine,
                      show_stats: bool) -> int:
    """Run the ``flow`` pseudo-command: the staged physical flow.

    Resolves ``--spec`` into the 2D baseline / M3D design pair, drives
    each through :func:`~repro.physical.flow.run_staged_flow` with the
    spec's ``flow`` section (every stage dispatched through the engine
    as ``flow.<stage>``, so ``--cache-dir`` makes re-runs incremental),
    and prints per-design feasibility.  Infeasible designs, including a
    design whose flow failed at a stage, are reported rows, not errors.
    """
    from repro.errors import ReproError
    from repro.physical.flow import run_staged_flow
    from repro.spec import load_design_spec
    from repro.spec.resolve import resolve
    from repro.units import to_mm2

    if args.spec is None:
        return _fail(args, "'flow' needs --spec PATH (a JSON design spec)")
    try:
        spec = load_design_spec(args.spec)
        point = resolve(spec)
        outcomes = [run_staged_flow(design, point.pdk, flow=spec.flow,
                                    engine=engine)
                    for design in (point.baseline, point.m3d)]
    except (OSError, ValueError, ReproError) as error:
        return _fail(args, error, prefix=f"bad --spec {args.spec}: ")
    rows = []
    for label, outcome in zip(("2D baseline", "M3D"), outcomes):
        feas = outcome.feasibility
        timing = outcome.timing
        rows.append([
            label,
            outcome.design.n_cs,
            "-" if outcome.floorplan is None
            else f"{to_mm2(outcome.floorplan.footprint):.1f}",
            "-" if timing is None
            else f"{timing.achieved_frequency / 1e6:.0f}",
            "-" if timing is None else f"{feas.timing_slack * 1e9:.1f}",
            f"{feas.track_utilization:.0%}",
            f"{feas.ilv_utilization:.0%}",
            "-" if outcome.thermal is None
            else f"{outcome.thermal.hotspot_rise_k:.2f}",
            feas.verdict,
        ])
    print(format_table(
        f"Staged physical flow — {args.spec}",
        ["design", "CS", "footprint mm^2", "fmax MHz", "slack ns",
         "tracks", "ILVs", "hotspot K", "feasibility"],
        rows,
    ))
    feasible = sum(outcome.feasible for outcome in outcomes)
    print(f"\nfeasible designs: {feasible}/{len(outcomes)}")
    if show_stats:
        from repro.experiments.reporting import format_run_report

        print()
        print(format_run_report(engine.report()))
    return 0


def _run_spec_command(command: str, args: argparse.Namespace, engine,
                      show_stats: bool) -> int:
    """Run the ``eval`` / ``sweep`` pseudo-command against ``--spec``."""
    from repro.errors import ReproError
    from repro.spec import (
        evaluate_specs,
        format_spec_evaluations,
        load_design_spec,
        load_sweep_spec,
    )

    if args.spec is None:
        return _fail(args, f"'{command}' needs --spec PATH (a JSON design "
                           f"or sweep spec)")
    streaming = bool(args.stream or args.checkpoint_dir or args.prune
                     or args.max_failures)
    batch = bool(args.batch or args.batch_size is not None)
    observe = bool(args.profile or args.trace or args.trace_csv
                   or args.metrics)
    if observe:
        from repro.obs.trace import trace
        observation = trace()
    else:
        observation = contextlib.nullcontext(None)
    summary = None
    try:
        with observation as tracer:
            if command == "eval":
                evaluations = evaluate_specs([load_design_spec(args.spec)],
                                             engine=engine, batch=batch,
                                             physical=args.physical)
                title = f"Spec evaluation — {args.spec}"
            else:
                from repro.sweep import DEFAULT_CHUNK_SIZE, run_streaming_sweep

                sweep = load_sweep_spec(args.spec)
                # Both sizes were checked >= 1 above, so ``or`` only
                # skips the ones not given.
                chunk_size = (args.chunk_size or args.batch_size
                              or DEFAULT_CHUNK_SIZE)
                result = run_streaming_sweep(
                    sweep, engine=engine, chunk_size=chunk_size,
                    prune=args.prune, checkpoint=args.checkpoint_dir,
                    batch=batch, physical=args.physical,
                    max_failures=args.max_failures)
                evaluations = result.evaluations
                kind = "Streaming sweep" if streaming else "Sweep evaluation"
                title = f"{kind} — {args.spec} ({result.points} points)"
                if streaming:
                    infeasible = (f"{result.infeasible} infeasible, "
                                  if args.physical else "")
                    failed = (f"{result.failed} failed, "
                              if args.max_failures != 0 or result.failed
                              else "")
                    summary = (f"streamed {result.points} points in "
                               f"{result.chunks} chunk(s): "
                               f"{result.evaluated} evaluated, "
                               f"{infeasible}"
                               f"{failed}"
                               f"{result.pruned} pruned, "
                               f"{result.resumed_chunks} chunk(s) resumed; "
                               f"frontier size {len(result.frontier)}")
    except (OSError, ValueError, ReproError) as error:
        return _fail(args, error, prefix=f"bad --spec {args.spec}: ")
    print(format_spec_evaluations(evaluations, title=title))
    if summary is not None:
        print(summary)
    if show_stats:
        from repro.experiments.reporting import format_run_report

        print()
        print(format_run_report(engine.report()))
    if observe:
        _export_observations(args, tracer)
    return 0


def _export_observations(args: argparse.Namespace, tracer) -> None:
    """Write the trace/metrics artifacts requested on the command line."""
    from repro.obs.export import (
        write_chrome_trace,
        write_prometheus,
        write_spans_csv,
    )
    from repro.obs.metrics import registry

    spans = tuple(tracer.roots)
    if args.trace:
        write_chrome_trace(args.trace, spans)
        print(f"\nwrote Chrome trace: {args.trace}", file=sys.stderr)
    if args.trace_csv:
        write_spans_csv(args.trace_csv, spans)
        print(f"\nwrote span CSV: {args.trace_csv}", file=sys.stderr)
    if args.metrics:
        write_prometheus(args.metrics, registry())
        print(f"\nwrote metrics: {args.metrics}", file=sys.stderr)
