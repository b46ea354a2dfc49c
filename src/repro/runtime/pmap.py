"""Fault-tolerant deterministic parallel map on a persistent worker pool.

:func:`pmap` evaluates ``fn`` over an item list on a process pool and
returns results *in input order* — ``pmap(fn, items, jobs=N)`` is
observably identical to ``[fn(item) for item in items]`` for any pure,
picklable ``fn``.  ``jobs=1`` (the default), short inputs, and any pool
*infrastructure* failure (sandboxed environments without semaphores,
unpicklable functions) run the plain serial map instead; exceptions
raised by ``fn`` itself always propagate unchanged.

Unlike a naive ``ProcessPoolExecutor.map``, dispatch is **supervised
per task** so one bad task cannot take down a million-point sweep:

* **bounded retries** — a task that raises
  :class:`~repro.errors.TransientError` is retried up to
  ``RetryPolicy.max_retries`` times with deterministic, seeded
  exponential backoff; any other exception is *permanent* and fails the
  task immediately (no retry budget burned on real bugs).
* **per-task timeouts** — with ``RetryPolicy.task_timeout`` set, a task
  that exceeds its deadline has its worker pool torn down and is retried
  as a transient failure; hung evaluations cannot stall a sweep forever.
* **pool respawn** — a worker death (``BrokenProcessPool``) kills only
  the pool, not the batch: a fresh pool is spawned and *only the tasks
  that were in flight* are redispatched.  When a fault-injection ledger
  is active (:mod:`repro.faults`), the death is attributed precisely to
  the task whose injected crash fired; otherwise the survivors are
  redispatched one at a time so the next death is unambiguous.
* **poison quarantine** — a task that kills the pool
  ``RetryPolicy.max_pool_deaths`` times is recorded as failed with
  :class:`~repro.errors.PoisonTaskError` instead of being retried
  forever or triggering a full serial rerun (which would crash the
  parent too).

:func:`pmap_outcomes` exposes the supervised result as per-task
:class:`TaskOutcome` records (value *or* error, plus retry/death
counts) so the engine can run in partial-results mode; :func:`pmap`
keeps the classic raise-on-first-error contract.  It is
``dispatch(...).join()``: :func:`dispatch` puts the first tasks on the
pool and returns, and :meth:`Dispatch.join` runs the supervised loop to
completion, so a caller can work while a batch runs.  Several batches
may share the pool; a pool death is handled by every batch that had
tasks on it, and only the first one replaces the pool.

Workers are persistent: the executor is reused while ``(jobs, fault
plan)`` are unchanged.  A new pool is ready when it is handed out:
as many workers as the batch has tasks (all of them under deadlines)
have started and run the initializer (a rendezvous on a barrier), and
a pool that cannot get there runs the batch serially.  When
observability is on in the parent
(:mod:`repro.obs`), each task ships its span tree and metric snapshot
back alongside its result.
"""

from __future__ import annotations

import atexit
import heapq
import multiprocessing
import os
import pickle
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Callable, Iterable, Sequence

from repro import faults
from repro.errors import PoisonTaskError, TransientError, require
from repro.obs.metrics import MetricsRegistry, registry as _metrics_registry
from repro.obs.metrics import use_registry as _use_registry
from repro.obs.trace import (
    current_tracer as _current_tracer,
    is_enabled as _obs_enabled,
    span as _span,
    trace as _trace,
)

#: Exceptions that mean "no pool can be had here" (sandboxes without
#: semaphores, missing multiprocessing support) — the one case that
#: still falls back to a serial run.  Task bugs (``AttributeError``,
#: ``PicklingError``, ...) are deliberately *not* in this tuple any
#: more: they propagate with their original traceback instead of being
#: silently reclassified as pool failures and rerun serially.
_POOL_FAILURES = (OSError, ImportError)

_pool: ProcessPoolExecutor | None = None
#: ``(jobs, plan_json)`` the live pool was built for; the fault plan is
#: part of the token so installing a plan retires stale workers.
_pool_token: tuple | None = None


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervised dispatcher treats failures.

    Attributes:
        max_retries: Transient-failure retries per task before the task
            is recorded as failed.
        backoff_base: First-retry backoff in seconds; doubles per retry.
        backoff_max: Backoff ceiling in seconds.
        backoff_seed: Seed for the deterministic backoff jitter — two
            runs with the same seed sleep the same schedule.
        task_timeout: Per-task wall-clock deadline in seconds; ``None``
            disables deadlines.  Expiry tears the pool down and retries
            the task as a transient failure.
        max_pool_deaths: Pool deaths attributed to one task before it is
            quarantined with :class:`~repro.errors.PoisonTaskError`.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    backoff_seed: int = 0
    task_timeout: float | None = None
    max_pool_deaths: int = 3

    def backoff(self, index: int, attempt: int) -> float:
        """Deterministic backoff before retry ``attempt`` of task ``index``.

        Exponential in ``attempt`` with a seeded jitter factor in
        ``[0.5, 1.0)`` so retries de-synchronize reproducibly.
        """
        if self.backoff_base <= 0.0:
            return 0.0
        raw = min(self.backoff_max,
                  self.backoff_base * (2.0 ** max(0, attempt - 1)))
        digest = sha256(
            f"{self.backoff_seed}|{index}|{attempt}".encode()).digest()
        jitter = 0.5 + (digest[0] / 512.0)
        return raw * jitter


#: Policy used when callers do not pass one explicitly.
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass
class TaskOutcome:
    """The supervised result of one task: a value *or* an error.

    Attributes:
        value: The task's return value (``None`` when it failed).
        error: The final exception when the task failed, else ``None``.
        retries: Transient retries this task consumed (deterministic
            under a seeded fault plan).
        pool_deaths: Worker-pool deaths attributed to this task.
    """

    value: Any = None
    error: BaseException | None = None
    retries: int = 0
    pool_deaths: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class DispatchReport:
    """One supervised batch: per-task outcomes plus batch-level counts.

    ``pool_deaths`` counts pool-death events attributed across the
    batch (equal to the number of injected crashes under a seeded fault
    plan — which is what makes chaos-test counters reproducible);
    ``timeouts`` counts deadline expiries.
    """

    outcomes: list[TaskOutcome] = field(default_factory=list)
    pool_deaths: int = 0
    timeouts: int = 0

    @property
    def retries(self) -> int:
        return sum(outcome.retries for outcome in self.outcomes)

    @property
    def failures(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)


class _Task:
    """Supervisor-side state for one in-flight call."""

    __slots__ = ("index", "payload", "retries", "pool_deaths",
                 "crash_claims", "transient_claims", "deadline", "pool")

    def __init__(self, index: int, payload: tuple) -> None:
        self.index = index
        self.payload = payload
        self.retries = 0
        self.pool_deaths = 0
        self.crash_claims = 0
        self.transient_claims = 0
        self.deadline: float | None = None
        self.pool: ProcessPoolExecutor | None = None


def default_jobs() -> int:
    """A sensible worker count for this machine (``os.cpu_count``)."""
    return max(1, os.cpu_count() or 1)


def _init_worker(plan_json: str | None, barrier=None) -> None:
    """Pool initializer: marks the worker, installs the fault plan if any,
    and keeps the pool's readiness barrier for :func:`_rendezvous`.

    Shipping the plan through the initializer is what lets a
    programmatically installed :class:`~repro.faults.FaultPlan` reach
    forkserver workers, which do not inherit parent-process state.
    """
    global _ready_barrier
    faults.mark_worker()
    if plan_json is not None:
        faults.install_plan(faults.FaultPlan.from_json(plan_json))
    _ready_barrier = barrier


#: Worker side: the barrier :func:`_rendezvous` waits on.
_ready_barrier = None

#: Seconds a new pool may take to start every worker.
_READY_TIMEOUT = 60.0


def _rendezvous() -> int:
    """Readiness task: hold this worker until every worker holds one.

    A worker runs one task at a time, so ``jobs`` of these passing a
    ``jobs``-party barrier ran on ``jobs`` distinct, started workers.
    """
    _ready_barrier.wait(timeout=_READY_TIMEOUT)
    return os.getpid()


def _apply(payload: tuple) -> tuple[Any, tuple | None]:
    """Worker body: run one call.

    Returns ``(result, shipped)`` where ``shipped`` is ``None`` unless
    the parent requested observability, in which case it is a picklable
    ``(spans, metric_samples, worker_label)`` triple: the task runs
    under a fresh local tracer and an isolated metrics registry, and the
    parent merges both into its own trace/registry on receipt.

    When a fault plan is active the parent ships a per-task token and
    every task-level injection site runs *before* the call — exactly
    where a real crash mid-pickle or mid-startup would land.
    """
    fn, args, kwargs, observe, token = payload
    if token is not None:
        faults.perturb_task(token)
    if not observe:
        return fn(*args, **kwargs), None
    task_registry = MetricsRegistry()
    with _trace() as tracer, _use_registry(task_registry):
        with tracer.span("pmap.task",
                         fn=getattr(fn, "__qualname__", str(fn))):
            result = fn(*args, **kwargs)
    shipped = (tracer.roots, task_registry.snapshot(),
               f"worker-{os.getpid()}")
    return result, shipped


def _pool_context():
    """A fork-safe multiprocessing context for worker start-up.

    Plain ``fork`` is unsafe here: once a first pool exists, this process
    carries executor management threads, and forking the *next* pool's
    workers from a multithreaded parent can deadlock the children on
    locks captured mid-operation.  ``forkserver`` forks workers from a
    clean single-threaded helper process instead (``spawn`` where it is
    unavailable).
    """
    try:
        return multiprocessing.get_context("forkserver")
    except ValueError:
        return multiprocessing.get_context("spawn")


def inflight_limit(jobs: int, policy: RetryPolicy) -> int:
    """Tasks the dispatcher keeps submitted to a ``jobs``-worker pool.

    With deadlines, in-flight == workers so "submitted" means "started"
    and a deadline measures run time; without them a 2x overfill keeps
    workers from starving between completions.
    """
    return jobs if policy.task_timeout else jobs * 2


def _acquire_pool(jobs: int, plan_json: str | None,
                  workers: int | None = None) -> ProcessPoolExecutor:
    """The persistent executor for ``(jobs, plan)``, creating or
    replacing it as needed.

    A new pool is *ready* when this returns: ``workers`` of its ``jobs``
    workers have started and run :func:`_init_worker`, and the rest
    start on demand.  The first tasks spread over started workers
    instead of queueing behind the one that happened to start, and a
    batch smaller than the pool starts no more workers than it has
    tasks.  ``workers=None`` (a batch with task deadlines) asks for
    every worker and replaces a live pool that started fewer, so
    deadlines measure run time, not cold start (a fresh forkserver pool
    takes a sizeable fraction of a second to spawn its workers; charging
    that to the first tasks would time them out, and each timeout's
    teardown would meet another cold pool).

    When the pool cannot start that many workers — the context cannot
    build the barrier, or a worker dies or stalls while starting — this
    raises one of ``_POOL_FAILURES``, which the dispatcher turns into a
    serial run.
    """
    global _pool, _pool_token
    token = (jobs, plan_json)
    if _pool is not None and token == _pool_token \
            and not getattr(_pool, "_broken", False) \
            and (workers is not None or _pool._repro_ready == jobs):
        return _pool
    workers = jobs if workers is None else min(workers, jobs)
    shutdown_pool()
    context = _pool_context()
    barrier = context.Barrier(workers)
    pool = ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=context,
        initializer=_init_worker,
        initargs=(plan_json, barrier))
    pool._repro_ready = workers
    _pool = pool
    _pool_token = token
    try:
        futures = [pool.submit(_rendezvous) for _ in range(workers)]
        wait(futures, timeout=_READY_TIMEOUT)
        started = all(future.done() and not future.cancelled()
                      and future.exception() is None for future in futures)
    except BrokenProcessPool:
        started = False
    except KeyboardInterrupt:
        _terminate_pool_processes(pool)
        shutdown_pool(wait=False)
        raise
    if not started:
        _terminate_pool_processes(pool)
        shutdown_pool(wait=False)
        raise OSError(f"the worker pool could not start {workers} of "
                      f"its {jobs} workers")
    return pool


def _retire_pool(pool: ProcessPoolExecutor) -> None:
    """Retire ``pool`` if it is still the live one.

    Several batches can have tasks on one pool; whichever sees it die
    first replaces it, and the others must not retire the replacement.
    """
    if _pool is pool:
        shutdown_pool(wait=False)


def _terminate_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Best-effort SIGTERM to a pool's workers (hung-task teardown)."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass


def shutdown_pool(wait: bool = True) -> None:
    """Retire the persistent worker pool (a new one spawns on demand).

    ``wait=True`` joins the executor's worker processes and management
    threads before returning.  That matters on fork-based platforms: the
    *next* pool's workers fork from this process, and forking while a
    dying executor's threads still hold internal locks can deadlock the
    children.  The ``atexit`` hook passes ``wait=False`` — nothing forks
    after interpreter shutdown begins.

    A ``KeyboardInterrupt`` arriving mid-shutdown (Ctrl-C twice in a
    row) no longer leaks forkserver zombies: the workers are terminated
    outright, the executor is released without waiting, and the
    interrupt is re-raised for the caller's clean-exit path.
    """
    global _pool, _pool_token
    pool, _pool = _pool, None
    _pool_token = None
    if pool is None:
        return
    try:
        pool.shutdown(wait=wait, cancel_futures=True)
    except KeyboardInterrupt:
        _terminate_pool_processes(pool)
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        raise
    except Exception:
        pass


atexit.register(shutdown_pool, wait=False)


def _merge_shipped(shipped: tuple | None, tracer, merge_into) -> None:
    if shipped is None:
        return
    worker_spans, samples, worker = shipped
    if tracer is not None:
        tracer.attach(worker_spans, worker=worker)
    if merge_into is not None:
        merge_into.merge(samples)


def _run_serial(payloads: Sequence[tuple],
                policy: RetryPolicy) -> DispatchReport:
    # Serial tasks run in the caller's process, so their spans flow
    # straight into the active tracer — no shipping, observe is ignored.
    # Transient failures still honor the retry policy (with real
    # sleeps); crash/hang fault sites never fire outside workers.
    report = DispatchReport()
    for index, (fn, args, kwargs, _observe, token) in enumerate(payloads):
        outcome = TaskOutcome()
        while True:
            try:
                if token is not None:
                    faults.perturb_task(token)
                outcome.value = fn(*args, **kwargs)
                outcome.error = None
            except TransientError as error:
                if outcome.retries >= policy.max_retries:
                    outcome.error = error
                    break
                outcome.retries += 1
                delay = policy.backoff(index, outcome.retries)
                if delay > 0.0:
                    time.sleep(delay)
                continue
            except Exception as error:
                outcome.error = error
            break
        report.outcomes.append(outcome)
    return report


def pmap(fn: Callable[..., Any], items: Iterable[Any],
         jobs: int = 1) -> list:
    """Map ``fn`` over ``items`` with ``jobs`` workers, preserving order.

    ``jobs=1`` runs serially with zero pool overhead; ``jobs<=0`` selects
    :func:`default_jobs`.  Results are returned in input order regardless
    of worker scheduling, so parallel and serial runs are interchangeable.

    The first failed task's exception (in input order) is re-raised with
    its original traceback; callers that want partial results use
    :func:`pmap_outcomes` instead.
    """
    report = pmap_outcomes(fn, [((item,), {}) for item in items], jobs=jobs)
    for outcome in report.outcomes:
        if outcome.error is not None:
            raise outcome.error
    return [outcome.value for outcome in report.outcomes]


def pmap_outcomes(fn: Callable[..., Any],
                  calls: Sequence[tuple[tuple, dict]],
                  jobs: int = 1,
                  policy: RetryPolicy | None = None) -> DispatchReport:
    """Supervised map that never raises for task failures.

    Every call produces a :class:`TaskOutcome` in input order — a value
    for tasks that (eventually) succeeded, the final classified
    exception for tasks that did not.  Batch-level pool-death and
    timeout counts ride on the returned :class:`DispatchReport`.
    ``dispatch(...).join()``: the one supervised path.
    """
    return dispatch(fn, calls, jobs=jobs, policy=policy).join()


def dispatch(fn: Callable[..., Any],
             calls: Sequence[tuple[tuple, dict]],
             jobs: int = 1,
             policy: RetryPolicy | None = None) -> "Dispatch":
    """Start a supervised map; :meth:`Dispatch.join` finishes it.

    The first tasks (up to :func:`inflight_limit`) are on the pool when
    this returns, so the caller can do other work while they run.  The
    serial cases of :func:`pmap_outcomes` (``jobs=1``, one call, an
    unpicklable ``fn``) evaluate at :meth:`Dispatch.join`, in the
    joining process.
    """
    if jobs <= 0:
        jobs = default_jobs()
    require(jobs >= 1, "jobs must be >= 1")
    if policy is None:
        policy = DEFAULT_RETRY_POLICY
    plan = faults.active_plan()
    tokens: list[str | None] = [None] * len(calls)
    if plan is not None:
        from repro.runtime.keys import call_key
        tokens = []
        for args, kwargs in calls:
            try:
                tokens.append(call_key(fn, args, kwargs))
            except (TypeError, AttributeError):
                tokens.append(None)
    tracer = _current_tracer()
    observe = _obs_enabled() and tracer is not None
    payloads = [(fn, args, kwargs, observe, tokens[i])
                for i, (args, kwargs) in enumerate(calls)]
    serial = jobs == 1 or len(payloads) <= 1
    if not serial:
        try:
            pickle.dumps(fn)
        except Exception:
            # Unpicklable callables (lambdas, closures) can never cross
            # the process boundary — run serially rather than failing
            # every task.
            serial = True
    batch = Dispatch(fn, payloads, jobs, policy, plan, tracer, observe,
                     serial)
    if not serial:
        batch.pump()
    return batch


class Dispatch:
    """One supervised batch between :func:`dispatch` and :meth:`join`:
    its queues and the dispatch loop (see module docstring).  A
    ``serial`` batch runs :func:`_run_serial` at :meth:`join` instead."""

    def __init__(self, fn: Callable[..., Any], payloads: Sequence[tuple],
                 jobs: int, policy: RetryPolicy, plan, tracer,
                 observe: bool, serial: bool) -> None:
        self.fn = fn
        self.payloads = payloads
        self.jobs = jobs
        self.policy = policy
        self.serial = serial
        self.joined = False
        self.inflight: dict[Any, _Task] = {}
        if serial:
            return
        self.plan = plan
        self.plan_json = plan.to_json() if plan is not None else None
        self.tracer = tracer
        self.merge_into = _metrics_registry() if observe else None
        self.report = DispatchReport(
            outcomes=[TaskOutcome() for _ in payloads])
        self.tasks = [_Task(index, payload)
                      for index, payload in enumerate(payloads)]
        self.pending: deque[_Task] = deque(self.tasks)
        # (ready_at, seq, task)
        self.waiting: list[tuple[float, int, _Task]] = []
        self.solo: deque[_Task] = deque()
        self.seq = 0
        self.max_inflight = inflight_limit(jobs, policy)
        # Workers a new pool starts before its first task: all of them
        # under deadlines (None), else no more than this batch has tasks.
        self.ready_workers = None if policy.task_timeout \
            else min(jobs, len(payloads))

    def join(self) -> DispatchReport:
        """Run the batch to completion (once; later calls return the
        same report)."""
        if not self.joined:
            if self.serial:
                self.report = _run_serial(self.payloads, self.policy)
            else:
                with _span("pmap.batch", calls=len(self.payloads),
                           jobs=self.jobs):
                    self.run()
            self.joined = True
        return self.report

    def fail(self, task: _Task, error: BaseException) -> None:
        outcome = self.report.outcomes[task.index]
        outcome.error = error
        outcome.value = None
        outcome.retries = task.retries
        outcome.pool_deaths = task.pool_deaths

    def succeed(self, task: _Task, value: Any) -> None:
        outcome = self.report.outcomes[task.index]
        outcome.value = value
        outcome.error = None
        outcome.retries = task.retries
        outcome.pool_deaths = task.pool_deaths

    def requeue_transient(self, task: _Task, error: BaseException) -> None:
        plan, policy = self.plan, self.policy
        if plan is not None and task.payload[4] is not None:
            # Keep the ledger mirror current so a later pool death does
            # not re-charge this (already delivered) injected transient.
            task.transient_claims = plan.claim_count(
                "task.transient", task.payload[4])
        if task.retries >= policy.max_retries:
            self.fail(task, error)
            return
        task.retries += 1
        delay = policy.backoff(task.index, task.retries)
        self.seq += 1
        heapq.heappush(self.waiting,
                       (time.monotonic() + delay, self.seq, task))

    def submit(self, task: _Task, queue: deque) -> bool:
        try:
            pool = _acquire_pool(self.jobs, self.plan_json,
                                 self.ready_workers)
        except BaseException:
            # Back in its queue, so a serial drain still runs it.
            queue.appendleft(task)
            raise
        try:
            future = pool.submit(_apply, task.payload)
        except BrokenProcessPool:
            # The pool died between completions; requeue uncharged and
            # let the in-flight futures (if any) surface the death.
            queue.appendleft(task)
            if not self.inflight:
                _retire_pool(pool)
            return False
        if self.policy.task_timeout is not None:
            task.deadline = time.monotonic() + self.policy.task_timeout
        task.pool = pool
        self.inflight[future] = task
        return True

    def pump(self) -> bool:
        """Submit what the in-flight limit allows; False when the pool
        could not be had and the batch was finished serially."""
        try:
            if self.solo:
                # Solo tasks run strictly alone: let in-flight work
                # drain, then dispatch one at a time so the next pool
                # death is unambiguously theirs; normal work resumes
                # only once the solo queue is empty.
                if not self.inflight:
                    self.submit(self.solo.popleft(), self.solo)
            else:
                while self.pending \
                        and len(self.inflight) < self.max_inflight:
                    if not self.submit(self.pending.popleft(),
                                       self.pending):
                        break
        except _POOL_FAILURES:
            shutdown_pool(wait=False)
            self.drain_serially()
            return False
        return True

    def drain_serially(self) -> None:
        # No pool available at all (sandbox) — finish everything in
        # this process with the serial retry loop.
        leftovers = sorted(
            list(self.pending) + [task for _, _, task in self.waiting]
            + list(self.solo) + list(self.inflight.values()),
            key=lambda task: task.index)
        self.pending.clear()
        self.waiting.clear()
        self.solo.clear()
        self.inflight.clear()
        serial = _run_serial([task.payload for task in leftovers],
                             self.policy)
        for task, outcome in zip(leftovers, serial.outcomes):
            outcome.retries += task.retries
            outcome.pool_deaths += task.pool_deaths
            self.report.outcomes[task.index] = outcome

    def charge_lost_transients(self, task: _Task) -> None:
        # A pool-mate's crash can destroy a future whose TransientError
        # was already raised (and ledger-charged) but not yet delivered.
        # Without this, that attempt would vanish: the victim requeues
        # uncharged and its spent injection budget stays quiet, so the
        # retry count would depend on delivery timing.  Charging the
        # ledger delta keeps retries a pure function of the seed.
        token = task.payload[4]
        if token is None:
            return
        claims = self.plan.claim_count("task.transient", token)
        while task.transient_claims < claims:
            task.transient_claims += 1
            if task.retries >= self.policy.max_retries:
                self.fail(task, TransientError(
                    f"task {task.index} ({_fn_label(self.fn)}) exhausted "
                    f"its retry budget (last attempt lost with its pool)"))
                return
            task.retries += 1

    def handle_pool_death(self, victims: list[_Task], pool) -> None:
        """Attribute a pool death, quarantine poison, requeue the rest."""
        _retire_pool(pool)
        policy, report = self.policy, self.report
        blamed: list[_Task] = []
        if self.plan is not None:
            for task in victims:
                token = task.payload[4]
                if token is None:
                    continue
                claims = self.plan.claim_count("task.crash", token)
                if claims > task.crash_claims:
                    task.crash_claims = claims
                    blamed.append(task)
        if blamed:
            # Ledger-precise blame: only the tasks whose injected crash
            # actually fired count a death; innocent victims requeue
            # freely and keep their counters clean — this is what makes
            # chaos-test death counts a pure function of the seed.
            report.pool_deaths += len(blamed)
            for task in victims:
                if task not in blamed:
                    self.charge_lost_transients(task)
                    if report.outcomes[task.index].error is None:
                        self.pending.appendleft(task)
            for task in blamed:
                task.pool_deaths += 1
                if task.pool_deaths >= policy.max_pool_deaths:
                    self.fail(task, _poison_error(self.fn, task, policy))
                else:
                    self.pending.appendleft(task)
            return
        # No ledger: the culprit is unknown, so every victim is charged
        # one death and the survivors rerun one at a time — the next
        # death then identifies the poison task unambiguously.  A death
        # that several batches saw counts once.
        if not getattr(pool, "_repro_death_counted", False):
            pool._repro_death_counted = True
            report.pool_deaths += 1
        for task in victims:
            task.pool_deaths += 1
            if task.pool_deaths >= policy.max_pool_deaths:
                self.fail(task, _poison_error(self.fn, task, policy))
            else:
                self.solo.append(task)

    def settle(self, future, task: _Task, victims: list[_Task]) -> bool:
        """Record one finished future; True when its pool had died."""
        try:
            value, shipped = future.result()
        except BrokenProcessPool:
            victims.append(task)
            return True
        except CancelledError:
            # Another batch retired the pool before this task started.
            self.pending.appendleft(task)
        except TransientError as error:
            self.requeue_transient(task, error)
        except Exception as error:
            self.fail(task, error)
        else:
            self.succeed(task, value)
            _merge_shipped(shipped, self.tracer, self.merge_into)
        return False

    def run(self) -> DispatchReport:
        """The supervised dispatch loop, to completion."""
        policy = self.policy
        pending, waiting, solo, inflight = \
            self.pending, self.waiting, self.solo, self.inflight
        try:
            while pending or waiting or solo or inflight:
                now = time.monotonic()
                while waiting and waiting[0][0] <= now:
                    _, _, task = heapq.heappop(waiting)
                    pending.append(task)
                if not self.pump():
                    continue
                if not inflight:
                    if waiting:
                        time.sleep(max(0.0,
                                       waiting[0][0] - time.monotonic()))
                    continue
                timeout = None
                if waiting:
                    timeout = max(0.0, waiting[0][0] - now)
                deadlines = [task.deadline for task in inflight.values()
                             if task.deadline is not None]
                if deadlines:
                    expiry = max(0.001, min(deadlines) - now)
                    timeout = expiry if timeout is None \
                        else min(timeout, expiry)
                done, _ = wait(list(inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                dead = None
                victims: list[_Task] = []
                for future in done:
                    task = inflight.pop(future)
                    if self.settle(future, task, victims):
                        dead = task.pool
                if dead is not None:
                    # Everything still in flight on that pool died with
                    # it; a few futures may have real results racing in
                    # — keep those.
                    for future, task in list(inflight.items()):
                        if task.pool is not dead:
                            continue
                        del inflight[future]
                        if not future.done() \
                                or self.settle(future, task, victims):
                            if task not in victims:
                                victims.append(task)
                    self.handle_pool_death(victims, dead)
                    # A *poison task* racks up deaths alone; when two
                    # distinct tasks are each charged twice, the pool
                    # environment itself is broken (workers start but
                    # die on every task; ones that cannot start fail
                    # _acquire_pool) — fall back to a serial run.
                    charged = sum(1 for task in self.tasks
                                  if task.pool_deaths >= 2)
                    if charged >= 2:
                        self.drain_serially()
                    continue
                if policy.task_timeout is None:
                    continue
                now = time.monotonic()
                expired = [task for task in inflight.values()
                           if task.deadline is not None
                           and task.deadline <= now]
                if not expired:
                    continue
                # A hung worker holds its queue slot until killed — tear
                # the whole pool down and retry the expired task(s) as
                # transient failures; non-expired in-flight tasks
                # requeue without being charged.
                self.report.timeouts += len(expired)
                pool = expired[0].pool
                _terminate_pool_processes(pool)
                _retire_pool(pool)
                for task in inflight.values():
                    if task in expired:
                        self.requeue_transient(task, TransientError(
                            f"task timed out after "
                            f"{policy.task_timeout:.1f}s "
                            f"({_fn_label(self.fn)})"))
                    else:
                        pending.appendleft(task)
                inflight.clear()
        except KeyboardInterrupt:
            # Ctrl-C mid-batch: kill the workers outright so no
            # forkserver zombies outlive the interrupt, then let the
            # caller exit clean.
            pool = _pool
            if pool is not None:
                _terminate_pool_processes(pool)
            shutdown_pool(wait=False)
            raise
        return self.report

    def cancel(self) -> None:
        """Abandon the batch: cancel queued tasks, wait out running
        ones, so no task of it stays on a worker.  It cannot be joined
        afterwards."""
        self.joined = True
        if self.serial:
            return
        futures = list(self.inflight)
        for future in futures:
            future.cancel()
        wait(futures, timeout=self.policy.task_timeout)
        self.pending.clear()
        self.waiting.clear()
        self.solo.clear()
        self.inflight.clear()


def _fn_label(fn: Callable[..., Any]) -> str:
    return getattr(fn, "__qualname__", str(fn))


def _poison_error(fn: Callable[..., Any], task: _Task,
                  policy: RetryPolicy) -> PoisonTaskError:
    return PoisonTaskError(
        f"task {task.index} ({_fn_label(fn)}) killed the worker pool "
        f"{task.pool_deaths} time(s) and was quarantined "
        f"(max_pool_deaths={policy.max_pool_deaths})")
