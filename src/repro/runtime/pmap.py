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
keeps the classic raise-on-first-error contract.

Workers are persistent: the executor is reused while ``(jobs, fault
plan)`` are unchanged.  When observability is on in the parent
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
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
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
                 "crash_claims", "transient_claims", "deadline")

    def __init__(self, index: int, payload: tuple) -> None:
        self.index = index
        self.payload = payload
        self.retries = 0
        self.pool_deaths = 0
        self.crash_claims = 0
        self.transient_claims = 0
        self.deadline: float | None = None


def default_jobs() -> int:
    """A sensible worker count for this machine (``os.cpu_count``)."""
    return max(1, os.cpu_count() or 1)


def _init_worker(plan_json: str | None) -> None:
    """Pool initializer: marks the worker, installs the fault plan if any.

    Shipping the plan through the initializer is what lets a
    programmatically installed :class:`~repro.faults.FaultPlan` reach
    forkserver workers, which do not inherit parent-process state.
    """
    faults.mark_worker()
    if plan_json is not None:
        faults.install_plan(faults.FaultPlan.from_json(plan_json))


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


def _acquire_pool(jobs: int, plan_json: str | None) -> ProcessPoolExecutor:
    """The persistent executor for ``(jobs, plan)``, creating or
    replacing it as needed."""
    global _pool, _pool_token
    token = (jobs, plan_json)
    if _pool is not None and token == _pool_token:
        return _pool
    shutdown_pool()
    pool = ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=_pool_context(),
        initializer=_init_worker,
        initargs=(plan_json,))
    _pool = pool
    _pool_token = token
    return pool


def _noop() -> None:
    return None


def _warm_pool(pool: ProcessPoolExecutor, jobs: int) -> None:
    """Block until the pool is actually executing work.

    Task deadlines must measure *run* time, not cold-start: a fresh
    forkserver pool takes a sizeable fraction of a second to spawn its
    workers, and charging that to whichever tasks were submitted first
    produces spurious timeouts — and, because each timeout tears the
    pool down, a livelock in which every retry meets another cold pool.
    Warming is once per pool object and never touches the fault ledger.
    """
    if getattr(pool, "_repro_warmed", False):
        return
    wait([pool.submit(_noop) for _ in range(jobs)], timeout=60.0)
    pool._repro_warmed = True


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
    if jobs == 1 or len(payloads) <= 1:
        return _run_serial(payloads, policy)
    try:
        pickle.dumps(fn)
    except Exception:
        # Unpicklable callables (lambdas, closures) can never cross the
        # process boundary — run serially rather than failing every task.
        return _run_serial(payloads, policy)
    with _span("pmap.batch", calls=len(payloads), jobs=jobs):
        return _supervise(fn, payloads, jobs, policy, plan, tracer, observe)


def _supervise(fn: Callable[..., Any], payloads: Sequence[tuple],
               jobs: int, policy: RetryPolicy, plan, tracer,
               observe: bool) -> DispatchReport:
    """The supervised dispatch loop (see module docstring)."""
    report = DispatchReport()
    report.outcomes = [TaskOutcome() for _ in payloads]
    merge_into = _metrics_registry() if observe else None
    plan_json = plan.to_json() if plan is not None else None

    tasks = [_Task(index, payload)
             for index, payload in enumerate(payloads)]
    pending: deque[_Task] = deque(tasks)
    waiting: list[tuple[float, int, _Task]] = []  # (ready_at, seq, task)
    solo: deque[_Task] = deque()
    inflight: dict[Any, _Task] = {}
    seq = 0
    # With deadlines enabled, in-flight == workers so "submitted" means
    # "started" and the deadline measures actual run time; without them
    # a 2x overfill keeps workers from starving between wait() wakeups.
    max_inflight = jobs if policy.task_timeout else jobs * 2

    def fail(task: _Task, error: BaseException) -> None:
        outcome = report.outcomes[task.index]
        outcome.error = error
        outcome.value = None
        outcome.retries = task.retries
        outcome.pool_deaths = task.pool_deaths

    def succeed(task: _Task, value: Any) -> None:
        outcome = report.outcomes[task.index]
        outcome.value = value
        outcome.error = None
        outcome.retries = task.retries
        outcome.pool_deaths = task.pool_deaths

    def requeue_transient(task: _Task, error: BaseException) -> None:
        nonlocal seq
        if plan is not None and task.payload[4] is not None:
            # Keep the ledger mirror current so a later pool death does
            # not re-charge this (already delivered) injected transient.
            task.transient_claims = plan.claim_count(
                "task.transient", task.payload[4])
        if task.retries >= policy.max_retries:
            fail(task, error)
            return
        task.retries += 1
        delay = policy.backoff(task.index, task.retries)
        seq += 1
        heapq.heappush(waiting,
                       (time.monotonic() + delay, seq, task))

    def submit(task: _Task, queue: deque) -> bool:
        pool = _acquire_pool(jobs, plan_json)
        try:
            if policy.task_timeout is not None:
                _warm_pool(pool, jobs)
            future = pool.submit(_apply, task.payload)
        except BrokenProcessPool:
            # The pool died between completions; requeue uncharged and
            # let the in-flight futures (if any) surface the death.
            queue.appendleft(task)
            if not inflight:
                shutdown_pool(wait=False)
            return False
        if policy.task_timeout is not None:
            task.deadline = time.monotonic() + policy.task_timeout
        inflight[future] = task
        return True

    def drain_serially() -> None:
        # No pool available at all (sandbox) — finish everything in
        # this process with the serial retry loop.
        leftovers = sorted(
            list(pending) + [task for _, _, task in waiting] + list(solo)
            + list(inflight.values()), key=lambda task: task.index)
        pending.clear()
        waiting.clear()
        solo.clear()
        inflight.clear()
        serial = _run_serial([task.payload for task in leftovers], policy)
        for task, outcome in zip(leftovers, serial.outcomes):
            outcome.retries += task.retries
            outcome.pool_deaths += task.pool_deaths
            report.outcomes[task.index] = outcome

    def charge_lost_transients(task: _Task) -> None:
        # A pool-mate's crash can destroy a future whose TransientError
        # was already raised (and ledger-charged) but not yet delivered.
        # Without this, that attempt would vanish: the victim requeues
        # uncharged and its spent injection budget stays quiet, so the
        # retry count would depend on delivery timing.  Charging the
        # ledger delta keeps retries a pure function of the seed.
        token = task.payload[4]
        if token is None:
            return
        claims = plan.claim_count("task.transient", token)
        while task.transient_claims < claims:
            task.transient_claims += 1
            if task.retries >= policy.max_retries:
                fail(task, TransientError(
                    f"task {task.index} ({_fn_label(fn)}) exhausted its "
                    f"retry budget (last attempt lost with its pool)"))
                return
            task.retries += 1

    def handle_pool_death(victims: list[_Task]) -> None:
        """Attribute a pool death, quarantine poison, requeue the rest."""
        shutdown_pool(wait=False)
        blamed: list[_Task] = []
        if plan is not None:
            for task in victims:
                token = task.payload[4]
                if token is None:
                    continue
                claims = plan.claim_count("task.crash", token)
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
                    charge_lost_transients(task)
                    if report.outcomes[task.index].error is None:
                        pending.appendleft(task)
            for task in blamed:
                task.pool_deaths += 1
                if task.pool_deaths >= policy.max_pool_deaths:
                    fail(task, _poison_error(fn, task, policy))
                else:
                    pending.appendleft(task)
            return
        # No ledger: the culprit is unknown, so every victim is charged
        # one death and the survivors rerun one at a time — the next
        # death then identifies the poison task unambiguously.
        report.pool_deaths += 1
        for task in victims:
            task.pool_deaths += 1
            if task.pool_deaths >= policy.max_pool_deaths:
                fail(task, _poison_error(fn, task, policy))
            else:
                solo.append(task)

    try:
        while pending or waiting or solo or inflight:
            now = time.monotonic()
            while waiting and waiting[0][0] <= now:
                _, _, task = heapq.heappop(waiting)
                pending.append(task)
            try:
                if solo:
                    # Solo tasks run strictly alone: let in-flight work
                    # drain, then dispatch one at a time so the next
                    # pool death is unambiguously theirs; normal work
                    # resumes only once the solo queue is empty.
                    if not inflight:
                        submit(solo.popleft(), solo)
                else:
                    while pending and len(inflight) < max_inflight:
                        if not submit(pending.popleft(), pending):
                            break
            except _POOL_FAILURES:
                shutdown_pool(wait=False)
                drain_serially()
                continue
            if not inflight:
                if waiting:
                    time.sleep(max(0.0, waiting[0][0] - time.monotonic()))
                continue
            timeout = None
            if waiting:
                timeout = max(0.0, waiting[0][0] - now)
            deadlines = [task.deadline for task in inflight.values()
                         if task.deadline is not None]
            if deadlines:
                expiry = max(0.001, min(deadlines) - now)
                timeout = expiry if timeout is None else min(timeout, expiry)
            done, _ = wait(list(inflight), timeout=timeout,
                           return_when=FIRST_COMPLETED)
            broken = False
            victims: list[_Task] = []
            for future in done:
                task = inflight.pop(future)
                try:
                    value, shipped = future.result()
                except BrokenProcessPool:
                    broken = True
                    victims.append(task)
                except TransientError as error:
                    requeue_transient(task, error)
                except Exception as error:
                    fail(task, error)
                else:
                    succeed(task, value)
                    _merge_shipped(shipped, tracer, merge_into)
            if broken:
                # Everything still in flight died with the pool; a few
                # futures may have real results racing in — keep those.
                for future, task in list(inflight.items()):
                    if future.done():
                        try:
                            value, shipped = future.result()
                        except BrokenProcessPool:
                            victims.append(task)
                        except TransientError as error:
                            requeue_transient(task, error)
                        except Exception as error:
                            fail(task, error)
                        else:
                            succeed(task, value)
                            _merge_shipped(shipped, tracer, merge_into)
                    else:
                        victims.append(task)
                inflight.clear()
                handle_pool_death(victims)
                # A *poison task* racks up deaths alone; when two
                # distinct tasks are each charged twice, the pool
                # environment itself is broken (workers cannot start)
                # — fall back to a serial run like the classic path.
                charged = sum(1 for task in tasks if task.pool_deaths >= 2)
                if charged >= 2:
                    drain_serially()
                continue
            if policy.task_timeout is None:
                continue
            now = time.monotonic()
            expired = [task for task in inflight.values()
                       if task.deadline is not None and task.deadline <= now]
            if not expired:
                continue
            # A hung worker holds its queue slot until killed — tear
            # the whole pool down and retry the expired task(s) as
            # transient failures; non-expired in-flight tasks requeue
            # without being charged.
            report.timeouts += len(expired)
            pool = _pool
            if pool is not None:
                _terminate_pool_processes(pool)
            shutdown_pool(wait=False)
            for task in inflight.values():
                if task in expired:
                    requeue_transient(task, TransientError(
                        f"task timed out after {policy.task_timeout:.1f}s "
                        f"({_fn_label(fn)})"))
                else:
                    pending.appendleft(task)
            inflight.clear()
    except KeyboardInterrupt:
        # Ctrl-C mid-batch: kill the workers outright so no forkserver
        # zombies outlive the interrupt, then let the caller exit clean.
        pool = _pool
        if pool is not None:
            _terminate_pool_processes(pool)
        shutdown_pool(wait=False)
        raise
    return report


def _fn_label(fn: Callable[..., Any]) -> str:
    return getattr(fn, "__qualname__", str(fn))


def _poison_error(fn: Callable[..., Any], task: _Task,
                  policy: RetryPolicy) -> PoisonTaskError:
    return PoisonTaskError(
        f"task {task.index} ({_fn_label(fn)}) killed the worker pool "
        f"{task.pool_deaths} time(s) and was quarantined "
        f"(max_pool_deaths={policy.max_pool_deaths})")
