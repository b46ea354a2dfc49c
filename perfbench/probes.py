"""Span probes for the traced run, and the per-layer breakdown of a trace.

The program already records spans at some layer boundaries
(``sweep.chunk``, ``engine.map``, ``pmap.batch``/``pmap.task``,
``simulator.run``, ``flow.<stage>``).  For the layers that record none,
:class:`Probes` swaps a timing wrapper in where the caller looks the
function up (``chunk_hash`` in ``repro.sweep.stream``, ``resolve`` in
``repro.spec.evaluate``, ...).  Each wrapper opens a span on the active
``repro.obs`` tracer, so probe spans and program spans form one tree and
self times subtract correctly.  Probes exist only from
:func:`sweep_probes` or :func:`serve_probes` until
:meth:`Probes.uninstall`; an untraced run never installs them.

Pool workers are separate processes that start from a fresh import, so
the physical sweep's traced run hands the pool
:func:`probed_evaluate_spec`, which installs the evaluation probes in the
worker on its first call.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Iterable

from repro.obs.trace import Span, Tracer, span

class Probes:
    """A set of attribute replacements that :meth:`uninstall` reverts."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, value: Any) -> None:
        """Set ``owner.name = value``, remembering the original."""
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, value)

    def wrap(self, owner: Any, name: str, span_name: str) -> None:
        """Record a ``span_name`` span around every call of ``owner.name``."""
        original = getattr(owner, name)

        @functools.wraps(original)
        def probe(*args: Any, **kwargs: Any) -> Any:
            with span(span_name):
                return original(*args, **kwargs)

        self.replace(owner, name, probe)

    def wrap_generator(self, owner: Any, name: str, span_name: str) -> None:
        """Record a ``span_name`` span around each item a generator yields."""
        original = getattr(owner, name)

        @functools.wraps(original)
        def probe(*args: Any, **kwargs: Any):
            items = original(*args, **kwargs)
            while True:
                with span(span_name):
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                yield item

        self.replace(owner, name, probe)

    def uninstall(self) -> None:
        """Restore every replaced attribute, newest first."""
        global _process_probes
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        if _process_probes is self:
            _process_probes = None

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


#: Probes installed in this process by :func:`probed_evaluate_spec` (pool
#: workers) or by :func:`sweep_probes` (the traced benchmark process).
_process_probes: Probes | None = None


def _add_evaluation_probes(probes: Probes) -> None:
    import repro.spec.evaluate as evaluate
    import repro.sweep.bounds as bounds

    probes.wrap(evaluate, "resolve", "spec.resolve")
    probes.wrap(bounds, "resolve", "spec.resolve")


def probed_evaluate_spec(*args: Any, **kwargs: Any) -> Any:
    """``evaluate_spec`` with the evaluation probes installed in this
    process first (a pool worker's first call installs them)."""
    global _process_probes
    from repro.spec.evaluate import evaluate_spec

    if _process_probes is None:
        _process_probes = Probes()
        _add_evaluation_probes(_process_probes)
    return evaluate_spec(*args, **kwargs)


def sweep_probes(workers: bool = False) -> Probes:
    """Install the probes of the sweep layers in this process.

    ``workers=True`` also routes per-point evaluation through
    :func:`probed_evaluate_spec`, so pool workers probe ``resolve`` too.
    """
    global _process_probes
    import repro.batch.kernel as kernel
    import repro.batch.pack as pack
    import repro.runtime.engine as engine
    import repro.sweep.stream as stream
    from repro.spec.sweep import SweepSpec
    from repro.sweep.checkpoint import SweepCheckpoint
    from repro.sweep.pareto import ParetoFrontier

    probes = Probes()
    probes.wrap_generator(SweepSpec, "chunks", "spec.expand")
    probes.wrap(stream, "chunk_hash", "sweep.chunk_hash")
    probes.wrap(stream, "spec_bounds", "sweep.bounds")
    probes.wrap(ParetoFrontier, "add", "sweep.pareto")
    probes.wrap(ParetoFrontier, "certified_dominator", "sweep.pareto")
    probes.wrap(SweepCheckpoint, "_load", "sweep.checkpoint_read")
    probes.wrap(SweepCheckpoint, "get", "sweep.checkpoint_read")
    probes.wrap(SweepCheckpoint, "store", "sweep.checkpoint_write")
    probes.wrap(engine, "call_key", "runtime.key")
    probes.wrap(pack, "spec_call_key", "runtime.key")
    probes.wrap(kernel, "pack_point", "batch.pack")
    probes.wrap(kernel.BatchKernel, "evaluate_calls", "batch.kernel")
    _add_evaluation_probes(probes)
    if workers:
        probes.replace(stream, "evaluate_spec", probed_evaluate_spec)
    _process_probes = probes
    return probes


def serve_probes(totals: "SpanTotals") -> Probes:
    """Install the server-side probes of a ``repro serve`` process.

    Evaluations run on executor threads with no active tracer, so each
    ``_eval_sync`` call runs under its own tracer and folds its spans
    into ``totals``.
    """
    import repro.runtime.engine as engine
    import repro.serve.app as app

    probes = Probes()
    probes.wrap(app, "call_key", "runtime.key")
    probes.wrap(engine, "call_key", "runtime.key")
    _add_evaluation_probes(probes)
    original = app.ReproServer._eval_sync

    @functools.wraps(original)
    def eval_sync(self, spec):
        tracer = Tracer()
        token = tracer.activate()
        try:
            with tracer.span("serve.eval_sync"):
                return original(self, spec)
        finally:
            tracer.deactivate(token)
            totals.add(tracer.roots)

    probes.replace(app.ReproServer, "_eval_sync", eval_sync)
    return probes


class SpanTotals:
    """Per-span-name sums over one or more span forests.

    Self time subtracts only children recorded in the same process:
    worker roots attached under a ``pmap.batch`` span ran in parallel on
    other processes, so they are summed as worker busy time instead.

    Attributes:
        self_s: Self seconds per span name, summed over processes.
        calls: Spans per name.
        local_root_s: Duration of this process's root spans (the wall
            time some layer accounts for).
        worker_s: Duration of worker-process root spans (busy time).
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.local_root_s = 0.0
        self.worker_s = 0.0
        self._lock = threading.Lock()

    def add(self, roots: Iterable[Span]) -> None:
        """Fold one span forest into the sums."""
        with self._lock:
            stack: list[tuple[Span, bool]] = []
            for root in roots:
                remote = root.worker is not None
                if remote:
                    self.worker_s += root.duration
                else:
                    self.local_root_s += root.duration
                stack.append((root, remote))
            while stack:
                node, remote = stack.pop()
                children = 0.0
                for child in node.children:
                    if child.worker is not None and not remote:
                        self.worker_s += child.duration
                        stack.append((child, True))
                    else:
                        children += child.duration
                        stack.append((child, remote))
                name = node.name
                self.self_s[name] = self.self_s.get(name, 0.0) \
                    + max(0.0, node.duration - children)
                self.calls[name] = self.calls.get(name, 0) + 1

    def reset(self) -> None:
        """Forget everything folded in so far."""
        with self._lock:
            self.self_s, self.calls = {}, {}
            self.local_root_s = self.worker_s = 0.0

    def to_jsonable(self) -> dict[str, Any]:
        return {"self_s": self.self_s, "calls": self.calls,
                "local_root_s": self.local_root_s,
                "worker_s": self.worker_s}

    @classmethod
    def from_jsonable(cls, data: dict[str, Any]) -> "SpanTotals":
        totals = cls()
        totals.self_s = dict(data["self_s"])
        totals.calls = dict(data["calls"])
        totals.local_root_s = data["local_root_s"]
        totals.worker_s = data["worker_s"]
        return totals

    def seconds(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)


def layer_times(totals: SpanTotals, wall_s: float,
                jobs: int = 1) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced run.

    ``wall_s`` is the traced window's wall time; ``jobs`` the pool width
    for ``runtime.pool_utilization``.
    """
    seconds = totals.seconds
    pmap_s = seconds("pmap.batch")
    values = {
        "spec.expand_s": seconds("spec.expand"),
        "spec.resolve_s": seconds("spec.resolve"),
        "spec.resolve_calls": totals.count("spec.resolve"),
        "sweep.chunk_hash_s": seconds("sweep.chunk_hash"),
        "sweep.bounds_s": seconds("sweep.bounds"),
        "sweep.pareto_s": seconds("sweep.pareto"),
        "sweep.checkpoint_write_s": seconds("sweep.checkpoint_write"),
        "sweep.checkpoint_read_s": seconds("sweep.checkpoint_read"),
        "runtime.key_s": seconds("runtime.key"),
        "runtime.pmap_s": pmap_s,
        "runtime.pool_utilization":
            totals.worker_s / (pmap_s * jobs) if pmap_s else 0.0,
        "batch.pack_s": seconds("batch.pack"),
        "batch.kernel_s": seconds("batch.kernel"),
        "perf.simulate_s": seconds("simulator.run", "simulator.run_layer"),
        "perf.simulate_calls": totals.count("simulator.run"),
    }
    from repro.physical.flow import FLOW_STAGES

    for stage in FLOW_STAGES:
        values[f"physical.flow.{stage}_s"] = seconds(f"flow.{stage}")
    values["obs.span_coverage"] = totals.local_root_s / wall_s \
        if wall_s > 0 else 0.0
    return values
