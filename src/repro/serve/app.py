"""Evaluation-as-a-service: the asyncio application behind ``repro serve``.

One process, one warm :class:`~repro.runtime.engine.EvaluationEngine`,
many clients.  The server's job is to make N concurrent clients cost as
close to one evaluation as their requests allow:

* **coalescing** — identical specs in flight at the same time share one
  evaluation.  The first arrival becomes the *owner* and spawns the
  engine call; every later arrival of the same spec fingerprint
  (:meth:`~repro.spec.design.DesignSpec.fingerprint`) awaits the owner's
  task.  This is the serving-time analogue of the engine's batch dedup:
  the cache collapses duplicates *across* time, coalescing collapses
  them *within* the in-flight window, before any result exists to cache.
* **batching** — ``/v1/sweep`` rides the streaming executor
  (:func:`~repro.sweep.stream.stream_sweep`) with ``batch=True`` by
  default, so a sweep's chunks evaluate through the vectorized kernel.
* **backpressure** — admitted work is bounded by ``max_pending``; beyond
  it the server answers 429 with ``Retry-After`` instead of queueing
  without limit.  Coalesced followers never consume a slot — duplicates
  are free by construction.
* **quotas** — optional per-client token buckets (keyed by the
  ``x-client-id`` header, falling back to the peer address) bound any
  single client's admission rate, again via 429 + ``Retry-After``.
* **fault tolerance** — a circuit breaker trips after consecutive
  unexpected engine failures (503 ``circuit_open`` with a half-open
  probe after cooldown), optional per-request deadlines answer 504
  ``deadline_exceeded`` (streams get an in-band error event), and
  SIGTERM drains in-flight work — open NDJSON streams included —
  before the process exits.

Evaluations are synchronous CPU work, so they run on a small thread pool
behind an engine lock: the event loop stays free to accept, coalesce and
reject, while engine internals (cache, counters, memo tables) only ever
run single-threaded.  Sweeps hold the lock per *chunk*, so a long sweep
interleaves fairly with point evaluations.  The one exception is a
``/v1/eval`` whose result sits in the cache's memory tier while no
worker thread holds the engine: the loop answers it itself, since the
lookup costs less than the hop to a thread and back.  The loop only
ever *tries* the lock, so it never waits on the engine.

Around the engine call, ``/v1/eval`` keeps two bounded memos on the
loop: request-body bytes to their parsed spec and fingerprint, and
fingerprint to the encoded ``result``.  A repeated body is parsed,
validated, hashed and encoded once; it still reaches the engine every
time, so cache, stage and breaker accounting are those of a fresh body.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Mapping

from repro.errors import ReproError, envelope, error_envelope
from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry, registry as _metrics_registry
from repro.runtime.cache import MISSING
from repro.runtime.engine import EvaluationEngine, default_engine
from repro.runtime.keys import call_key
from repro.runtime.memo import MemoTable
from repro.serve.http import (
    ProtocolError,
    Request,
    Response,
    StreamingBody,
    read_request,
    write_response,
)
from repro.serve.protocol import (
    API_VERSION,
    evaluation_wire,
    http_status_for,
    parse_eval_body,
    parse_sweep_body,
)
from repro.spec.design import DesignSpec
from repro.spec.evaluate import SpecEvaluation, evaluate_spec
from repro.sweep.stream import DEFAULT_CHUNK_SIZE, stream_sweep

__all__ = ["ReproServer", "ServerConfig", "serve"]

#: Default TCP port: "DB48" — the paper is DATE 2023, the repo is repro.
DEFAULT_PORT = 8348

#: Entries in each ``/v1/eval`` memo (bodies, encoded results); FIFO
#: eviction beyond it.
_EVAL_MEMO_ENTRIES = 1024

#: Largest body the body memo stores.  A spec body is 0.5-0.7 KB, so this
#: admits every real one and bounds the table's keys at
#: ``_EVAL_MEMO_ENTRIES * _EVAL_MEMO_BODY_BYTES`` (2 MiB).
_EVAL_MEMO_BODY_BYTES = 2048

#: A ``/v1/eval`` reply up to its ``result``, exactly as ``json.dumps``
#: writes the payload dict.
_EVAL_REPLY_HEAD = '{"api": ' + json.dumps(API_VERSION) + ', "result": '


@dataclass(frozen=True)
class ServerConfig:
    """Tunable knobs of one :class:`ReproServer`.

    Attributes:
        host: Bind address.
        port: Bind port (0 = ephemeral, for tests and benchmarks).
        max_pending: Admitted-but-unfinished evaluation/sweep budget;
            beyond it new work is rejected with 429 ``overloaded``.
            Coalesced duplicates do not count against it.
        quota_rate: Per-client token-bucket refill rate in requests per
            second; 0 disables quotas.
        quota_burst: Per-client bucket capacity (burst size).
        eval_workers: Threads evaluating engine work.  The engine lock
            serializes engine access regardless; a sweep stream holds a
            worker only while one of its chunks evaluates.
        chunk_size: Default points per sweep chunk (and NDJSON flush).
        batch: Evaluate sweep chunks through the vectorized batch
            kernel by default (per-request ``options.batch`` overrides).
        max_body_bytes: Request-body cap (413 beyond it).
        request_timeout: Per-request deadline in seconds; 0 disables.
            Non-streaming requests that overrun answer 504
            ``deadline_exceeded``; a sweep stream applies it to each
            wait for a chunk and ends the stream with an error event.
        drain_seconds: How long a SIGTERM-triggered drain waits for
            in-flight requests (including open NDJSON streams) to
            finish before the process exits anyway.
        breaker_threshold: Consecutive *unexpected* engine failures
            (``ReproError`` never counts — that blames the request)
            that trip the circuit breaker; 0 disables it.  While open,
            POST work answers 503 ``circuit_open`` + ``Retry-After``.
        breaker_reset_seconds: Cooldown before an open breaker admits
            one half-open probe whose outcome closes or re-opens it.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    max_pending: int = 1024
    quota_rate: float = 0.0
    quota_burst: int = 64
    eval_workers: int = 2
    chunk_size: int = DEFAULT_CHUNK_SIZE
    batch: bool = True
    max_body_bytes: int = 8 * 1024 * 1024
    request_timeout: float = 0.0
    drain_seconds: float = 10.0
    breaker_threshold: int = 5
    breaker_reset_seconds: float = 30.0


class _TokenBucket:
    """Classic token bucket; refills continuously at ``rate`` per second."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: int, now: float) -> None:
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = now

    def acquire(self, now: float) -> float:
        """0.0 when a token was taken, else seconds until one refills."""
        self.tokens = min(self.burst,
                          self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class _CircuitBreaker:
    """Trips open after ``threshold`` consecutive engine failures.

    Only unexpected exceptions count — a :class:`~repro.errors.ReproError`
    blames the request, not the engine.  While open, new engine work is
    refused; after ``reset_seconds`` exactly one half-open probe is
    admitted, and its outcome closes or re-opens the circuit.  All
    transitions run under a lock because sweep workers record outcomes
    from executor threads while the event loop asks for admission.
    """

    __slots__ = ("threshold", "reset_seconds", "_lock", "_failures",
                 "_opened_at", "_probing")

    def __init__(self, threshold: int, reset_seconds: float) -> None:
        self.threshold = threshold
        self.reset_seconds = reset_seconds
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            return "half_open" if self._probing else "open"

    def allow(self, now: float) -> float:
        """0.0 when admitted, else seconds until the next probe slot."""
        if self.threshold <= 0:
            return 0.0
        with self._lock:
            if self._opened_at is None:
                return 0.0
            elapsed = now - self._opened_at
            if elapsed >= self.reset_seconds and not self._probing:
                self._probing = True        # half-open: exactly one probe
                return 0.0
            return max(self.reset_seconds - elapsed, 0.001)

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self, now: float) -> bool:
        """Count one engine failure; True when this call opened the circuit."""
        if self.threshold <= 0:
            return False
        with self._lock:
            self._failures += 1
            if self._probing:               # failed probe: re-open
                self._opened_at = now
                self._probing = False
                return True
            if self._opened_at is None and self._failures >= self.threshold:
                self._opened_at = now
                return True
            return False


@dataclass
class _ServeStats:
    """Server-side counters surfaced by ``/v1/cache`` and the benchmark.

    Attributes:
        connections: Connections accepted.
        requests: Requests answered, by any status.
        coalesced: Eval requests that shared an in-flight evaluation.
        rejected_overload: Requests refused by the pending budget.
        rejected_quota: Requests refused by a client's token bucket.
        rejected_breaker: Requests refused by the open circuit breaker.
        rejected_draining: Requests refused during SIGTERM drain.
        deadline_exceeded: Requests (or stream gaps) past the deadline.
        streams_cancelled: Sweep streams cancelled by client disconnect.
        peak_pending: High-water mark of admitted concurrent work.
        peak_inflight: High-water mark of concurrently open requests
            (admitted + coalesced + reads in progress).
        loop_hits: Eval requests answered on the event loop from the
            cache's memory tier, without the executor hop.
    """

    connections: int = 0
    requests: int = 0
    coalesced: int = 0
    rejected_overload: int = 0
    rejected_quota: int = 0
    rejected_breaker: int = 0
    rejected_draining: int = 0
    deadline_exceeded: int = 0
    streams_cancelled: int = 0
    peak_pending: int = 0
    peak_inflight: int = 0
    loop_hits: int = 0

    def to_jsonable(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass
class _EvalOutcome:
    """What one owned evaluation produced (shared by all coalescees)."""

    evaluation: SpecEvaluation
    cached: bool = False


_DONE = object()


class ReproServer:
    """The ``/v1`` evaluation server over one shared engine.

    Construct, then either ``await start()`` inside a running loop (tests,
    benchmarks) or call the blocking :func:`serve` helper.  The engine
    defaults to the process-wide one, so a CLI-configured cache directory
    (``repro serve --cache-dir``) is what every client shares.
    """

    def __init__(self, config: ServerConfig | None = None,
                 engine: EvaluationEngine | None = None) -> None:
        self.config = config if config is not None else ServerConfig()
        self.engine = engine if engine is not None else default_engine()
        self.stats = _ServeStats()
        self.metrics: MetricsRegistry = _metrics_registry()
        self.started = time.time()
        # Reentrant: the loop takes it without blocking to answer a
        # memory hit, then runs the same _eval_sync a worker thread runs.
        self._engine_lock = threading.RLock()
        self._breaker = _CircuitBreaker(self.config.breaker_threshold,
                                        self.config.breaker_reset_seconds)
        self._draining = False
        self._inflight_evals: dict[str, asyncio.Task] = {}
        self._pending = 0
        self._open_requests = 0
        self._idle_writers: set[asyncio.StreamWriter] = set()
        self._buckets: dict[str, _TokenBucket] = {}
        # Event-loop only, so unlocked: body bytes -> (spec, fingerprint)
        # and fingerprint -> the ``json.dumps`` text of its result.
        self._eval_bodies = MemoTable("serve.eval_bodies",
                                      max_entries=_EVAL_MEMO_ENTRIES)
        self._eval_replies = MemoTable("serve.eval_replies",
                                       max_entries=_EVAL_MEMO_ENTRIES)
        self._executor: concurrent.futures.ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._routes: dict[tuple[str, str], Callable[
            [Request], Awaitable[Response]]] = {
            ("GET", f"/{API_VERSION}/health"): self._handle_health,
            ("GET", f"/{API_VERSION}/cache"): self._handle_cache,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", f"/{API_VERSION}/metrics"): self._handle_metrics,
            ("POST", f"/{API_VERSION}/eval"): self._handle_eval,
        }

    # --- lifecycle --------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, self.config.eval_workers),
            thread_name_prefix="repro-serve-eval")
        # A deep accept backlog: the load generator opens thousands of
        # connections in one burst, and dropped SYNs on loopback would
        # show up as 1 s retransmission spikes in the latency tail.
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            backlog=4096)
        sockets = self._server.sockets or ()
        host, port = sockets[0].getsockname()[:2]
        return host, port

    async def serve_forever(self) -> None:
        """Run until cancelled (``start`` must have been awaited)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: stop accepting, let in-flight work finish.

        Closes the listening socket and every idle keep-alive connection,
        flips the server into draining mode (each response now carries
        ``Connection: close``, and new POST work on a surviving
        connection answers 503 ``shutting_down``), then waits up to
        ``timeout`` (default ``config.drain_seconds``) for every open
        request — including in-flight NDJSON sweep streams — to
        complete.  Returns ``True`` when the server drained fully,
        ``False`` on timeout.
        """
        self._draining = True
        await self._close_listener()
        budget = self.config.drain_seconds if timeout is None else timeout
        deadline = time.monotonic() + max(budget, 0.0)
        while self._open_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        return self._open_requests == 0

    async def stop(self) -> None:
        """Stop accepting and release the worker threads."""
        await self._close_listener()
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    async def _close_listener(self) -> None:
        # Idle keep-alive connections close too, since from Python 3.12
        # on ``wait_closed`` waits for every open connection.  A client's
        # next request on one fails before any response byte, which the
        # bundled client retries once on a fresh connection.
        if self._server is not None:
            self._server.close()
            for writer in self._idle_writers:
                writer.close()
            await self._server.wait_closed()
            self._server = None

    # --- connection handling ----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        client = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) \
            else "local"
        self.stats.connections += 1
        self.metrics.counter("repro_serve_connections_total").inc()
        try:
            while True:
                self._idle_writers.add(writer)
                try:
                    request = await read_request(reader, client,
                                                 self.config.max_body_bytes)
                finally:
                    self._idle_writers.discard(writer)
                if request is None:
                    break
                self._open_requests += 1
                self.stats.peak_inflight = max(self.stats.peak_inflight,
                                               self._open_requests)
                started = time.perf_counter()
                status = 500
                try:
                    response = await self._dispatch(request, writer)
                    if response is None:      # body was streamed
                        status = 200
                        break
                    status = response.status
                    # The header says what happens next: a draining
                    # server closes the connection after this response.
                    await write_response(
                        writer, response,
                        request.keep_alive and not self._draining)
                finally:
                    self._open_requests -= 1
                    self._observe(request, status,
                                  time.perf_counter() - started)
                if not request.keep_alive or self._draining:
                    break
        except ProtocolError as error:
            await self._best_effort_error(writer, error.status, str(error))
        except (ConnectionError, asyncio.CancelledError, TimeoutError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _best_effort_error(self, writer: asyncio.StreamWriter,
                                 status: int, message: str) -> None:
        try:
            body = (json.dumps(envelope("protocol_error", message)) + "\n") \
                .encode("utf-8")
            await write_response(writer, Response(status=status, body=body),
                                 keep_alive=False)
        except (ConnectionError, OSError):
            pass

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> Response | None:
        """Route one request; ``None`` means the handler streamed the body."""
        self.stats.requests += 1
        is_sweep = request.method == "POST" \
            and request.path == f"/{API_VERSION}/sweep"
        route = self._routes.get((request.method, request.path))
        if route is None and not is_sweep:
            return self._route_miss(request)
        if request.method == "POST":
            denied = self._check_draining() or self._check_breaker() \
                or self._check_quota(request)
            if denied is not None:
                return denied
        try:
            if is_sweep:
                # The only route that owns the writer: it streams NDJSON.
                return await self._handle_sweep(request, writer)
            if self.config.request_timeout > 0:
                try:
                    return await asyncio.wait_for(
                        route(request), self.config.request_timeout)
                except asyncio.TimeoutError:
                    return self._deadline_response()
            return await route(request)
        except ReproError as error:
            return self._error_response(error)
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception as error:                      # noqa: BLE001
            body = (json.dumps(envelope(
                "internal_error", f"{type(error).__name__}: {error}"))
                + "\n").encode("utf-8")
            return Response(status=500, body=body)

    def _route_miss(self, request: Request) -> Response:
        is_sweep = request.path == f"/{API_VERSION}/sweep"
        known_paths = {path for _, path in self._routes} \
            | {f"/{API_VERSION}/sweep"}
        if request.path in known_paths:
            allowed = sorted({method for method, path in self._routes
                              if path == request.path}
                             | ({"POST"} if is_sweep else set()))
            body = (json.dumps(envelope(
                "method_not_allowed",
                f"{request.method} not allowed on {request.path}; "
                f"allowed: {', '.join(allowed)}")) + "\n").encode("utf-8")
            return Response(status=405, body=body,
                            headers={"Allow": ", ".join(allowed)})
        body = (json.dumps(envelope(
            "not_found",
            f"unknown route {request.path}; this server speaks the "
            f"/{API_VERSION}/ API")) + "\n").encode("utf-8")
        return Response(status=404, body=body)

    def _error_response(self, error: BaseException) -> Response:
        status = http_status_for(error)
        body = (json.dumps(error_envelope(error)) + "\n").encode("utf-8")
        return Response(status=status, body=body)

    def _observe(self, request: Request, status: int, seconds: float) -> None:
        self.metrics.counter("repro_serve_requests_total",
                             method=request.method, path=request.path,
                             status=status).inc()
        self.metrics.histogram("repro_serve_request_seconds",
                               path=request.path).observe(seconds)
        self.metrics.gauge("repro_serve_inflight").set(self._open_requests)

    # --- admission control ------------------------------------------------

    def _check_draining(self) -> Response | None:
        if not self._draining:
            return None
        self.stats.rejected_draining += 1
        self.metrics.counter("repro_serve_rejected_total",
                             reason="draining").inc()
        body = (json.dumps(envelope(
            "shutting_down",
            "server is draining and accepts no new work")) + "\n") \
            .encode("utf-8")
        return Response(status=503, body=body,
                        headers={"Retry-After": "1"})

    def _check_breaker(self) -> Response | None:
        wait = self._breaker.allow(time.monotonic())
        if wait <= 0:
            return None
        self.stats.rejected_breaker += 1
        self.metrics.counter("repro_serve_rejected_total",
                             reason="breaker").inc()
        body = (json.dumps(envelope(
            "circuit_open",
            f"engine failing persistently "
            f"({self._breaker.threshold} consecutive failures); "
            f"circuit re-probes after cooldown")) + "\n").encode("utf-8")
        return Response(status=503, body=body,
                        headers={"Retry-After": f"{wait:.3f}"})

    def _deadline_response(self) -> Response:
        self.stats.deadline_exceeded += 1
        self.metrics.counter("repro_serve_deadline_total").inc()
        body = (json.dumps(envelope(
            "deadline_exceeded",
            f"request exceeded the {self.config.request_timeout:g} s "
            f"deadline")) + "\n").encode("utf-8")
        return Response(status=504, body=body)

    def _check_quota(self, request: Request) -> Response | None:
        if self.config.quota_rate <= 0:
            return None
        client = request.headers.get("x-client-id") \
            or request.client.rsplit(":", 1)[0]
        now = time.monotonic()
        bucket = self._buckets.get(client)
        if bucket is None:
            if len(self._buckets) >= 4096:       # bound per-client state
                self._buckets.clear()
            bucket = self._buckets[client] = _TokenBucket(
                self.config.quota_rate, self.config.quota_burst, now)
        wait = bucket.acquire(now)
        if wait <= 0:
            return None
        self.stats.rejected_quota += 1
        self.metrics.counter("repro_serve_rejected_total",
                             reason="quota").inc()
        body = (json.dumps(envelope(
            "rate_limited",
            f"client {client} exceeded {self.config.quota_rate:g} "
            f"requests/s (burst {self.config.quota_burst})")) + "\n") \
            .encode("utf-8")
        return Response(status=429, body=body,
                        headers={"Retry-After": f"{max(wait, 0.001):.3f}"})

    def _admit(self) -> Response | None:
        """Take one pending slot, or produce the 429 overload response."""
        if self._pending >= self.config.max_pending:
            self.stats.rejected_overload += 1
            self.metrics.counter("repro_serve_rejected_total",
                                 reason="overload").inc()
            body = (json.dumps(envelope(
                "overloaded",
                f"{self._pending} evaluations already pending "
                f"(max_pending={self.config.max_pending})")) + "\n") \
                .encode("utf-8")
            return Response(status=429, body=body,
                            headers={"Retry-After": "1"})
        self._pending += 1
        self.stats.peak_pending = max(self.stats.peak_pending, self._pending)
        self.metrics.gauge("repro_serve_pending").set(self._pending)
        return None

    def _release(self) -> None:
        self._pending -= 1
        self.metrics.gauge("repro_serve_pending").set(self._pending)

    # --- GET routes -------------------------------------------------------

    async def _handle_health(self, request: Request) -> Response:
        from repro import __version__

        payload = {
            "status": "ok",
            "api": API_VERSION,
            "version": __version__,
            "uptime_seconds": round(time.time() - self.started, 3),
            "pending": self._pending,
            "inflight_evals": len(self._inflight_evals),
            "breaker": self._breaker.state,
            "draining": self._draining,
        }
        return Response(status=200,
                        body=(json.dumps(payload) + "\n").encode("utf-8"))

    async def _handle_cache(self, request: Request) -> Response:
        cache = self.engine.cache
        report = self.engine.report()
        payload: dict[str, Any] = {
            "api": API_VERSION,
            "entries": len(cache) if cache is not None else 0,
            "cache": dict(vars(cache.stats)) if cache is not None else None,
            "stages": {
                stage.name: {
                    "calls": stage.calls,
                    "evaluated": stage.evaluated,
                    "cache_hits": stage.cache_hits,
                    "cache_misses": stage.cache_misses,
                    "dedup_hits": stage.dedup_hits,
                    "wall_time": stage.wall_time,
                }
                for stage in report.stages
            },
            "serve": self.stats.to_jsonable(),
            "memos": {
                name: {"entries": len(table), "hits": table.hits,
                       "misses": table.misses}
                for name, table in (("body", self._eval_bodies),
                                    ("reply", self._eval_replies))
            },
        }
        return Response(status=200,
                        body=(json.dumps(payload) + "\n").encode("utf-8"))

    async def _handle_metrics(self, request: Request) -> Response:
        text = prometheus_text(self.metrics)
        return Response(status=200, body=text.encode("utf-8"),
                        content_type="text/plain; version=0.0.4")

    # --- POST /v1/eval ----------------------------------------------------

    async def _handle_eval(self, request: Request) -> Response:
        spec, fingerprint = self._parse_eval(request.body)
        task = self._inflight_evals.get(fingerprint)
        coalesced = task is not None
        if coalesced:
            self.stats.coalesced += 1
            self.metrics.counter("repro_serve_coalesced_total").inc()
        else:
            denied = self._admit()
            if denied is not None:
                return denied
            try:
                outcome = self._eval_on_loop(spec)
            except BaseException:
                self._release()
                raise
            if outcome is None:
                task = asyncio.get_running_loop().create_task(
                    self._run_eval(spec))
                self._inflight_evals[fingerprint] = task
                task.add_done_callback(
                    lambda _done, key=fingerprint: self._eval_done(key))
            else:
                self._release()
        if task is not None:
            # Shielded: a disconnecting follower (or owner) must not
            # cancel the shared evaluation other clients are waiting on.
            outcome = await asyncio.shield(task)
        result = self._eval_replies.get(fingerprint)
        if result is MISSING:
            result = json.dumps(evaluation_wire(outcome.evaluation,
                                                fingerprint))
            self._eval_replies.put(fingerprint, result)
        # Byte for byte what json.dumps writes for the payload dict
        # {"api", "result", "cached", "coalesced"}.
        body = (f'{_EVAL_REPLY_HEAD}{result}, '
                f'"cached": {"true" if outcome.cached else "false"}, '
                f'"coalesced": {"true" if coalesced else "false"}}}\n')
        return Response(status=200, body=body.encode("utf-8"))

    def _parse_eval(self, body: bytes) -> tuple[DesignSpec, str]:
        """The spec and fingerprint of a ``/v1/eval`` body, parsed once
        per distinct body.

        Parsing is a pure function of the bytes, so a stored verdict is
        the one a fresh parse would give.  Only bodies that parse are
        stored (a 400 or 422 body is parsed again each time), and only
        bodies up to ``_EVAL_MEMO_BODY_BYTES``.
        """
        small = len(body) <= _EVAL_MEMO_BODY_BYTES
        parsed = self._eval_bodies.get(body) if small else MISSING
        if parsed is MISSING:
            spec = parse_eval_body(body)
            parsed = (spec, spec.fingerprint())
            if small:
                self._eval_bodies.put(body, parsed)
        return parsed

    def _eval_done(self, key: str) -> None:
        self._inflight_evals.pop(key, None)
        self._release()

    def _eval_on_loop(self, spec: DesignSpec) -> _EvalOutcome | None:
        """Answer a memory-tier hit on the loop; ``None`` sends the
        request to the executor.

        Only when no worker thread holds the engine: the lock is tried,
        never waited on.  A key held only on disk goes to the executor
        too, so file reads stay off the loop.
        """
        cache = self.engine.cache
        if cache is None or not self._engine_lock.acquire(blocking=False):
            return None
        try:
            if not cache.in_memory(call_key(evaluate_spec, (spec,), {})):
                return None
            outcome = self._evaluate(spec)
        finally:
            self._engine_lock.release()
        self.stats.loop_hits += 1
        self.metrics.counter("repro_serve_loop_hits_total").inc()
        return outcome

    async def _run_eval(self, spec: DesignSpec) -> _EvalOutcome:
        assert self._executor is not None, "server not started"
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, self._evaluate, spec)

    def _evaluate(self, spec: DesignSpec) -> _EvalOutcome:
        """``_eval_sync`` with the breaker's accounting, on either path."""
        try:
            outcome = self._eval_sync(spec)
        except ReproError:
            raise                   # blames the request, not the engine
        except Exception:
            self._record_engine_failure()
            raise
        self._breaker.record_success()
        return outcome

    def _record_engine_failure(self) -> None:
        if self._breaker.record_failure(time.monotonic()):
            self.metrics.counter("repro_serve_breaker_opened_total").inc()

    def _eval_sync(self, spec: DesignSpec) -> _EvalOutcome:
        # The bare (spec,) call shape matches what evaluate_specs builds
        # under the default PDK, so served points and library sweeps
        # share cache entries — a sweep warms /v1/eval and vice versa.
        # The cache's hit count tells a hit without hashing the key again.
        with self._engine_lock:
            cache = self.engine.cache
            hits = cache.stats.hits if cache is not None else 0
            result = self.engine.map(evaluate_spec, [(spec,)],
                                     stage="serve.eval", jobs=1)[0]
            cached = cache is not None and cache.stats.hits > hits
            return _EvalOutcome(evaluation=result, cached=cached)

    # --- POST /v1/sweep (streaming) ---------------------------------------

    async def _handle_sweep(self, request: Request,
                            writer: asyncio.StreamWriter) -> Response | None:
        """Stream a sweep as NDJSON; returns a Response only on rejection."""
        sweep, options = parse_sweep_body(request.body)
        denied = self._admit()
        if denied is not None:
            return denied
        chunk_size = int(options.get("chunk_size", self.config.chunk_size))
        prune = bool(options.get("prune", False))
        batch = bool(options.get("batch", self.config.batch))

        generator = stream_sweep(sweep, engine=self.engine,
                                 chunk_size=chunk_size, prune=prune,
                                 batch=batch)
        loop = asyncio.get_running_loop()
        assert self._executor is not None, "server not started"

        def pull() -> asyncio.Future:
            return loop.run_in_executor(self._executor, self._next_chunk,
                                        generator)

        pending = pull()
        stream = StreamingBody(writer)
        points = evaluated = pruned = chunks = 0
        try:
            await stream.start()
            await self._send_event(stream, {
                "event": "start", "api": API_VERSION, "points": len(sweep),
                "chunk_size": chunk_size, "prune": prune, "batch": batch,
            })
            while True:
                # The per-request deadline bounds each wait for a chunk:
                # a stuck engine surfaces as an in-band error event
                # instead of a silently hung stream.
                done, _ = await asyncio.wait(
                    (pending,), timeout=self.config.request_timeout or None)
                if not done:
                    self.stats.deadline_exceeded += 1
                    self.metrics.counter("repro_serve_deadline_total").inc()
                    await self._send_event(stream, {
                        "event": "error", **envelope(
                            "deadline_exceeded",
                            f"no chunk within the "
                            f"{self.config.request_timeout:g} s deadline")})
                    break
                try:
                    item = pending.result()
                except Exception as error:              # noqa: BLE001
                    await self._send_event(stream, {
                        "event": "error", **error_envelope(error)})
                    break
                if item is _DONE:
                    await self._send_event(stream, {
                        "event": "end", "points": points,
                        "evaluated": evaluated, "pruned": pruned,
                        "chunks": chunks,
                    })
                    break
                # The next chunk evaluates while this one is written; the
                # engine never runs more than one chunk ahead of the client.
                pending = pull()
                chunks += 1
                points += item.size
                evaluated += len(item.evaluations)
                pruned += item.pruned
                for evaluation in item.evaluations:
                    await self._send_event(stream, {
                        "event": "evaluation",
                        **evaluation_wire(evaluation),
                    })
                await self._send_event(stream, {
                    "event": "chunk", "index": item.index,
                    "size": item.size, "pruned": item.pruned,
                    "frontier_size": item.frontier_size,
                    "seconds": item.seconds,
                })
                self.metrics.counter(
                    "repro_serve_stream_points_total").inc(item.size)
            await stream.finish()
        except (ConnectionError, asyncio.CancelledError, OSError):
            # Client went away mid-stream: stop pulling chunks and leave
            # the shared cache exactly as the completed chunks left it
            # (their results stay valid).
            self.stats.streams_cancelled += 1
            self.metrics.counter("repro_serve_streams_cancelled_total").inc()
        finally:
            # A running generator cannot be closed: let the chunk in
            # flight finish first.
            try:
                await pending
            except Exception:                           # noqa: BLE001
                pass                   # already surfaced as an error event
            generator.close()
            self._release()
        return None

    @staticmethod
    async def _send_event(stream: StreamingBody,
                          payload: Mapping[str, Any]) -> None:
        """Write one NDJSON event line to the chunked body."""
        await stream.send((json.dumps(payload) + "\n").encode("utf-8"))

    def _next_chunk(self, generator) -> Any:
        """The next chunk of a sweep stream (``_DONE`` at its end), on a
        worker thread.

        Holds the engine lock for this one chunk, so concurrent
        ``/v1/eval`` requests interleave with a long stream.
        """
        try:
            with self._engine_lock:
                chunk = next(generator, _DONE)
        except ReproError:
            raise                   # blames the request, not the engine
        except Exception:
            self._record_engine_failure()
            raise
        if chunk is _DONE:
            self._breaker.record_success()
        return chunk


def serve(config: ServerConfig | None = None,
          engine: EvaluationEngine | None = None) -> None:
    """Run a :class:`ReproServer` until interrupted (the CLI entry point).

    SIGTERM and SIGINT both trigger a graceful drain: the listener
    closes immediately (a supervisor's replacement can bind), in-flight
    requests — including open NDJSON sweep streams — get
    ``config.drain_seconds`` to finish, then the process exits cleanly.
    """

    async def _main() -> None:
        server = ReproServer(config=config, engine=engine)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        handled = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
                handled.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass            # non-Unix loop: fall back to KeyboardInterrupt
        # Handlers first, listener second: a SIGTERM that races the
        # startup print must already find the graceful path installed.
        host, port = await server.start()
        print(f"repro serve listening on http://{host}:{port} "
              f"(api /{API_VERSION}/)", flush=True)
        forever = asyncio.ensure_future(server.serve_forever())
        stopper = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait({forever, stopper},
                               return_when=asyncio.FIRST_COMPLETED)
            if stop.is_set():
                print("repro serve draining "
                      f"(up to {server.config.drain_seconds:g} s) ...",
                      flush=True)
                drained = await server.drain()
                print("repro serve drained cleanly" if drained
                      else "repro serve drain timed out; exiting anyway",
                      flush=True)
        finally:
            forever.cancel()
            stopper.cancel()
            for signum in handled:
                loop.remove_signal_handler(signum)
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
