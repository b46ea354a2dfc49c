"""Tests for the /v1 evaluation server (`repro serve`).

Each test boots a real :class:`~repro.serve.ReproServer` on an ephemeral
port inside one event loop and talks to it over actual sockets through
the bundled :class:`~repro.serve.ServeClient`, so the full wire protocol
— HTTP parsing, chunked NDJSON streaming, error envelopes — is what is
under test, not handler internals.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Awaitable, Callable

import pytest

from repro.runtime.engine import EvaluationEngine
from repro.serve import ReproServer, ServeClient, ServeError, ServerConfig
from repro.spec import DesignSpec, evaluate_spec

SPEC = {"arch": {}, "tech": {}, "workload": {"network": "resnet18"}}
SWEEP = {"base": SPEC, "grid": {"tech.delta": [1.0, 1.5, 2.0]}}


def serve_test(test: Callable[[ReproServer, ServeClient], Awaitable[Any]],
               config: ServerConfig | None = None,
               engine: EvaluationEngine | None = None) -> Any:
    """Run ``test(server, client)`` against a live server on port 0."""

    async def main() -> Any:
        server = ReproServer(
            config if config is not None else ServerConfig(port=0),
            engine=engine if engine is not None else EvaluationEngine())
        host, port = await server.start()
        client = ServeClient(host, port)
        try:
            return await test(server, client)
        finally:
            await client.aclose()
            await server.stop()

    return asyncio.run(main())


# --- basic routes ---------------------------------------------------------


def test_health_endpoint():
    async def check(server, client):
        payload = await client.health()
        assert payload["status"] == "ok"
        assert payload["api"] == "v1"
        assert payload["pending"] == 0

    serve_test(check)


def test_eval_matches_library_evaluation():
    async def check(server, client):
        payload = await client.evaluate(SPEC)
        result = payload["result"]
        expected = evaluate_spec(DesignSpec.from_jsonable(SPEC))
        assert result["speedup"] == pytest.approx(expected.speedup)
        assert result["edp_benefit"] == pytest.approx(expected.edp_benefit)
        assert result["fingerprint"] == expected.spec.fingerprint()
        assert payload["cached"] is False
        assert payload["coalesced"] is False

    serve_test(check)


def test_eval_reports_cached_on_repeat():
    async def check(server, client):
        first = await client.evaluate(SPEC)
        assert server.stats.loop_hits == 0
        second = await client.evaluate(SPEC)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["result"] == first["result"]
        # The repeat is a memory hit, answered on the event loop.
        assert (await client.cache())["serve"]["loop_hits"] == 1
        assert "repro_serve_loop_hits_total" in await client.metrics_text()

    serve_test(check)


def test_wrapped_spec_body_accepted():
    async def check(server, client):
        bare = await client.evaluate(SPEC)
        wrapped = await client.evaluate({"spec": SPEC})
        assert wrapped["result"] == bare["result"]

    serve_test(check)


def test_unknown_route_404_envelope():
    async def check(server, client):
        status, _headers, body = await client._request("GET", "/nope")
        assert status == 404
        assert json.loads(body)["error"]["type"] == "not_found"

    serve_test(check)


def test_wrong_method_405_envelope():
    async def check(server, client):
        status, headers, body = await client._request("DELETE", "/v1/eval")
        assert status == 405
        assert json.loads(body)["error"]["type"] == "method_not_allowed"
        assert "POST" in headers.get("allow", "")

    serve_test(check)


# --- error envelope: malformed input never becomes a 500 ------------------


def test_malformed_json_yields_400_envelope_not_500():
    async def check(server, client):
        # _request can't send raw garbage; drive the socket directly.
        reader, writer = await asyncio.open_connection(client.host,
                                                       client.port)
        garbage = b"{not json"
        writer.write(
            (f"POST /v1/eval HTTP/1.1\r\nHost: x\r\n"
             f"Content-Length: {len(garbage)}\r\n"
             f"Connection: close\r\n\r\n").encode() + garbage)
        await writer.drain()
        raw = await reader.read()
        writer.close()
        status_line, _, rest = raw.partition(b"\r\n")
        assert b"400" in status_line
        envelope = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert envelope["error"]["type"] == "configuration_error"
        assert "invalid JSON body" in envelope["error"]["message"]

    serve_test(check)


def test_invalid_spec_yields_422_envelope():
    async def check(server, client):
        with pytest.raises(ServeError) as info:
            await client.evaluate({"bogus": 1})
        assert info.value.status == 422
        assert info.value.error_type == "configuration_error"

    serve_test(check)


def test_invalid_sweep_option_yields_400():
    async def check(server, client):
        with pytest.raises(ServeError) as info:
            await client.sweep(SWEEP, options={"chunk_size": "nope"})
        assert info.value.status == 400

    serve_test(check)


def test_non_object_body_yields_400():
    async def check(server, client):
        status, _headers, body = await client._request(
            "POST", "/v1/eval", [1, 2, 3])
        assert status == 400
        assert "JSON object" in json.loads(body)["error"]["message"]

    serve_test(check)


# --- coalescing -----------------------------------------------------------


def test_concurrent_identical_specs_evaluate_exactly_once():
    engine = EvaluationEngine()

    async def check(server, client):
        results = await asyncio.gather(
            *(client.evaluate(SPEC) for _ in range(24)))
        stage = engine.report().stage("serve.eval")
        # The acceptance criterion: N identical in-flight specs, ONE
        # engine evaluation.  Late arrivals (after the owner finished)
        # are cache hits, never re-evaluations.
        assert stage.evaluated == 1
        coalesced = sum(1 for r in results if r["coalesced"])
        assert coalesced > 0
        assert coalesced == server.stats.coalesced
        assert coalesced + stage.calls == 24
        fingerprints = {r["result"]["fingerprint"] for r in results}
        assert len(fingerprints) == 1

    serve_test(check, engine=engine)


def test_distinct_specs_do_not_coalesce():
    engine = EvaluationEngine()

    async def check(server, client):
        specs = [dict(SPEC, tech={"delta": delta})
                 for delta in (1.0, 1.5, 2.0)]
        await asyncio.gather(*(client.evaluate(s) for s in specs))
        assert engine.report().stage("serve.eval").evaluated == 3

    serve_test(check, engine=engine)


class _HoldingEngine(EvaluationEngine):
    """Holds the engine on one spec's evaluation until ``release`` is set
    (at most 10 s); every other call runs normally."""

    def __init__(self, held: dict) -> None:
        super().__init__()
        self.held = DesignSpec.from_jsonable(held)
        self.holding = threading.Event()
        self.release = threading.Event()

    def map(self, fn, calls, *args, **kwargs):
        calls = list(calls)
        if any(call == (self.held,) for call in calls):
            self.holding.set()
            self.release.wait(10.0)
        return super().map(fn, calls, *args, **kwargs)


def test_warm_burst_holds_half_its_requests_in_flight():
    """200 concurrent requests over 24 cached specs, sent while a slow
    miss (a 25th spec) holds the engine: the hits must queue behind it,
    and the server holds at least half of them open at once instead of
    serializing its clients."""
    specs = [dict(SPEC, tech={"delta": 1.0 + 0.005 * i}) for i in range(25)]
    slow, specs = specs[-1], specs[:-1]
    burst = [specs[i % len(specs)] for i in range(200)]
    engine = _HoldingEngine(slow)

    async def check(server, client):
        loop = asyncio.get_running_loop()
        await asyncio.gather(*(client.evaluate(s) for s in specs))
        held = asyncio.ensure_future(client.evaluate(slow))
        assert await asyncio.to_thread(engine.holding.wait, 10.0)
        read = server.stats.requests
        pending = asyncio.gather(*(client.evaluate(s) for s in burst))
        # Let the engine go once the server has read the whole burst (or
        # after 5 s: a server that serializes its clients never does).
        deadline = loop.time() + 5.0
        while server.stats.requests < read + len(burst) \
                and loop.time() < deadline:
            await asyncio.sleep(0.01)
        engine.release.set()
        results = await pending
        assert (await held)["cached"] is False
        assert all(r["cached"] for r in results)
        assert server.stats.peak_inflight >= len(burst) // 2

    # max_pending above the burst: this measures concurrency, not 429s.
    serve_test(check, config=ServerConfig(port=0, max_pending=8192),
               engine=engine)


# --- cache hits on the event loop -----------------------------------------


def test_cache_hit_hashes_the_spec_once(monkeypatch):
    import repro.runtime.engine as engine_module
    import repro.serve.app as app

    counts = {"fingerprint": 0, "call_key": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    async def check(server, client):
        first = await client.evaluate(SPEC)
        monkeypatch.setattr(DesignSpec, "fingerprint", counted(
            "fingerprint", DesignSpec.fingerprint))
        for module in (app, engine_module):
            monkeypatch.setattr(module, "call_key", counted(
                "call_key", module.call_key))
        # A new body of a cached spec is parsed and hashed once.
        second = await client.evaluate({"spec": SPEC})
        assert second["cached"] is True
        assert second["result"] == first["result"]
        assert counts["fingerprint"] == 1
        assert counts["call_key"] <= 2
        # The same bytes again: the body memo holds spec and fingerprint.
        counts.update(fingerprint=0, call_key=0)
        third = await client.evaluate({"spec": SPEC})
        assert third["cached"] is True
        assert third["result"] == first["result"]
        assert counts["fingerprint"] == 0
        assert counts["call_key"] <= 2

    serve_test(check)


# --- the /v1/eval body and reply memos ------------------------------------


async def _post_eval_raw(client: ServeClient, body: bytes) \
        -> tuple[int, bytes]:
    """POST exact bytes to /v1/eval; ``(status, body)``."""
    reader, writer = await asyncio.open_connection(client.host, client.port)
    writer.write((f"POST /v1/eval HTTP/1.1\r\nHost: x\r\n"
                  f"Content-Length: {len(body)}\r\n"
                  f"Connection: close\r\n\r\n").encode() + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, reply = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), reply


def test_failing_and_large_bodies_are_parsed_every_time():
    """The same bytes get the same verdict; only small bodies that parse
    are stored."""
    async def check(server, client):
        before = (await client.cache())["memos"]["body"]["entries"]
        for body, status in ((b"{not json", 400),
                             (json.dumps({"bogus": 1}).encode(), 422)):
            first = await _post_eval_raw(client, body)
            again = await _post_eval_raw(client, body)
            assert first[0] == status
            assert again == first
        large = json.dumps(SPEC).encode() + b" " * 4096
        status, reply = await _post_eval_raw(client, large)
        assert status == 200
        assert json.loads(reply)["result"]["fingerprint"] \
            == DesignSpec.from_jsonable(SPEC).fingerprint()
        assert (await client.cache())["memos"]["body"]["entries"] == before

    serve_test(check)


def test_eval_reply_bytes_are_the_json_dumps_of_the_payload():
    """A first miss, its coalesced followers and a repeated hit reply
    exactly ``json.dumps(payload) + "\\n"``."""
    from repro.serve.protocol import evaluation_wire

    spec = DesignSpec.from_jsonable(SPEC)
    result = evaluation_wire(evaluate_spec(spec), spec.fingerprint())

    def encoded(cached: bool, coalesced: bool) -> bytes:
        payload = {"api": "v1", "result": result, "cached": cached,
                   "coalesced": coalesced}
        return (json.dumps(payload) + "\n").encode("utf-8")

    async def check(server, client):
        replies = await asyncio.gather(
            *(client._request("POST", "/v1/eval", SPEC) for _ in range(24)))
        flags = set()
        for status, _headers, body in replies:
            assert status == 200
            payload = json.loads(body)
            flags.add((payload["cached"], payload["coalesced"]))
            assert body == encoded(payload["cached"], payload["coalesced"])
        assert (False, False) in flags           # the owner's miss
        assert (False, True) in flags            # a coalesced follower
        status, _headers, body = await client._request(
            "POST", "/v1/eval", SPEC)
        assert body == encoded(True, False)      # a repeated hit

    serve_test(check)


def test_every_repeated_body_still_reaches_the_engine():
    async def check(server, client):
        for _ in range(5):
            await client.evaluate(SPEC)
        stage = (await client.cache())["stages"]["serve.eval"]
        assert stage["calls"] == 5
        assert stage["cache_hits"] == 4

    serve_test(check)


def test_disabled_memoization_leaves_the_eval_memos_empty():
    from repro.runtime.memo import memoization_disabled

    async def check(server, client):
        first = await client._request("POST", "/v1/eval", SPEC)
        second = await client._request("POST", "/v1/eval", SPEC)
        assert json.loads(second[2])["cached"] is True
        assert second[2] == first[2].replace(b'"cached": false',
                                             b'"cached": true')
        memos = (await client.cache())["memos"]
        assert memos["body"]["entries"] == memos["reply"]["entries"] == 0

    with memoization_disabled():
        serve_test(check)


def test_disk_only_hit_goes_through_the_executor(tmp_path):
    async def warm(server, client):
        return await client.evaluate(SPEC)

    first = serve_test(warm, engine=EvaluationEngine(cache_dir=tmp_path))
    engine = EvaluationEngine(cache_dir=tmp_path)
    threads: list[str] = []

    async def check(server, client):
        original = server._eval_sync

        def eval_sync(spec):
            threads.append(threading.current_thread().name)
            return original(spec)

        server._eval_sync = eval_sync
        reply = await client.evaluate(SPEC)
        assert reply["cached"] is True
        assert reply["result"] == first["result"]
        assert server.stats.loop_hits == 0
        assert engine.cache.stats.disk_hits == 1
        # The disk hit put the entry in memory: the next one stays on
        # the loop.
        assert (await client.evaluate(SPEC))["cached"] is True
        assert server.stats.loop_hits == 1

    serve_test(check, engine=engine)
    assert threads[0].startswith("repro-serve-eval")
    assert threads[1] == threading.main_thread().name
    assert engine.report().stage("serve.eval").cache_hits == 2


def test_eval_sync_runs_once_per_owned_evaluation():
    calls = []

    async def check(server, client):
        original = server._eval_sync
        server._eval_sync = lambda spec: calls.append(spec) \
            or original(spec)
        await client.evaluate(SPEC)                     # miss
        await client.evaluate(SPEC)                     # hit
        assert len(calls) == 2
        other = dict(SPEC, tech={"delta": 1.5})
        results = await asyncio.gather(
            *(client.evaluate(other) for _ in range(8)))
        coalesced = sum(1 for r in results if r["coalesced"])
        assert len(calls) == 2 + len(results) - coalesced
        stage = server.engine.report().stage("serve.eval")
        assert stage.calls == len(calls)

    serve_test(check)


# --- sweep streaming ------------------------------------------------------


def test_sweep_streams_ndjson_events_in_order():
    async def check(server, client):
        events = await client.sweep(SWEEP, options={"chunk_size": 2})
        kinds = [event["event"] for event in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "end"
        assert kinds.count("evaluation") == 3
        assert kinds.count("chunk") == 2
        end = events[-1]
        assert end["points"] == 3
        assert end["evaluated"] == 3
        start = events[0]
        assert start["points"] == 3
        assert start["batch"] is True

    serve_test(check)


def test_sweep_matches_library_results():
    async def check(server, client):
        events = await client.sweep(SWEEP)
        served = {event["fingerprint"]: event["speedup"]
                  for event in events if event["event"] == "evaluation"}
        from repro.spec import SweepSpec
        from repro.sweep import run_streaming_sweep
        expected = run_streaming_sweep(SweepSpec.from_jsonable(SWEEP),
                                       engine=EvaluationEngine()).evaluations
        for evaluation in expected:
            fingerprint = evaluation.spec.fingerprint()
            assert served[fingerprint] == pytest.approx(evaluation.speedup)

    serve_test(check)


def test_bare_design_spec_is_one_point_sweep():
    async def check(server, client):
        status, _headers, body = await client._request(
            "POST", "/v1/sweep", SPEC)
        assert status == 200

    serve_test(check)


def test_sweep_warms_the_eval_cache():
    engine = EvaluationEngine()

    async def check(server, client):
        await client.sweep(SWEEP)
        payload = await client.evaluate(
            {**SPEC, "tech": {"delta": 1.5}})
        assert payload["cached"] is True

    serve_test(check, engine=engine)


def test_client_disconnect_cancels_sweep_without_poisoning_cache():
    engine = EvaluationEngine()
    big_sweep = {"base": SPEC,
                 "grid": {"tech.delta": [round(1.0 + i * 0.05, 2)
                                         for i in range(40)]}}

    async def check(server, client):
        stream = client.sweep_events(big_sweep, options={"chunk_size": 1})
        async for event in stream:
            if event["event"] == "evaluation":
                break                     # hang up mid-stream
        await stream.aclose()
        # The server notices between chunk flushes and stops the worker.
        for _ in range(200):
            if server.stats.streams_cancelled and server._pending == 0:
                break
            await asyncio.sleep(0.05)
        assert server.stats.streams_cancelled == 1
        assert server._pending == 0
        partial = engine.report().stage("sweep.evaluate").evaluated
        assert partial < 40               # it really was cancelled early
        # The shared cache is not poisoned: the same sweep re-runs to
        # completion and every point matches a fresh engine's results.
        events = await client.sweep(big_sweep, options={"chunk_size": 8})
        end = events[-1]
        assert end["event"] == "end"
        assert end["points"] == 40
        served = {e["fingerprint"]: e["edp_benefit"] for e in events
                  if e["event"] == "evaluation"}
        from repro.spec import SweepSpec
        from repro.sweep import run_streaming_sweep
        expected = run_streaming_sweep(SweepSpec.from_jsonable(big_sweep),
                                       engine=EvaluationEngine()).evaluations
        assert len(served) == 40
        for evaluation in expected:
            assert served[evaluation.spec.fingerprint()] == pytest.approx(
                evaluation.edp_benefit)

    serve_test(check, engine=engine)


# --- backpressure and quotas ----------------------------------------------


def test_overload_yields_429_with_retry_after():
    async def check(server, client):
        with pytest.raises(ServeError) as info:
            await client.evaluate(SPEC)
        assert info.value.status == 429
        assert info.value.error_type == "overloaded"
        assert info.value.retry_after is not None
        assert server.stats.rejected_overload == 1

    serve_test(check, config=ServerConfig(port=0, max_pending=0))


def test_sweep_overload_yields_429():
    async def check(server, client):
        with pytest.raises(ServeError) as info:
            await client.sweep(SWEEP)
        assert info.value.status == 429

    serve_test(check, config=ServerConfig(port=0, max_pending=0))


def test_quota_yields_429_rate_limited():
    async def check(server, client):
        async with ServeClient(client.host, client.port,
                               client_id="alice") as limited:
            await limited.evaluate(SPEC)  # burst of 1: first is free
            with pytest.raises(ServeError) as info:
                await limited.evaluate(SPEC)
        assert info.value.status == 429
        assert info.value.error_type == "rate_limited"
        assert info.value.retry_after > 0
        # A different client has its own bucket.
        async with ServeClient(client.host, client.port,
                               client_id="bob") as other:
            payload = await other.evaluate(SPEC)
        assert payload["result"]["speedup"] > 1
        assert server.stats.rejected_quota == 1

    serve_test(check, config=ServerConfig(port=0, quota_rate=0.001,
                                          quota_burst=1))


def test_quota_does_not_gate_reads():
    async def check(server, client):
        async with ServeClient(client.host, client.port,
                               client_id="alice") as limited:
            await limited.evaluate(SPEC)
            for _ in range(5):            # GETs bypass the token bucket
                assert (await limited.health())["status"] == "ok"

    serve_test(check, config=ServerConfig(port=0, quota_rate=0.001,
                                          quota_burst=1))


# --- observability endpoints ----------------------------------------------


def test_metrics_endpoint_scrapes_prometheus_text():
    async def check(server, client):
        await client.evaluate(SPEC)
        text = await client.metrics_text()
        assert "repro_serve_requests_total" in text
        assert "repro_serve_request_seconds" in text

    serve_test(check)


def test_cache_endpoint_reports_engine_and_serve_counters():
    async def check(server, client):
        replies = [await client.evaluate(SPEC) for _ in range(3)]
        replies.append(await client.evaluate({"spec": SPEC}))
        assert all(r["result"] == replies[0]["result"] for r in replies)
        payload = await client.cache()
        assert payload["entries"] >= 1
        assert payload["cache"]["stores"] >= 1
        assert payload["stages"]["serve.eval"]["evaluated"] == 1
        assert payload["serve"]["requests"] >= 5
        # Two distinct bodies of one spec: one parse each, one encoding.
        assert payload["memos"]["body"] == {"entries": 2, "hits": 2,
                                            "misses": 2}
        assert payload["memos"]["reply"] == {"entries": 1, "hits": 3,
                                             "misses": 1}

    serve_test(check)


def test_cache_counts_one_connection_per_sequential_client():
    async def check(server, client):
        before = (await client.cache())["serve"]["connections"]
        async with ServeClient(client.host, client.port) as fresh:
            for _ in range(20):
                await fresh.evaluate(SPEC)
            after = (await fresh.cache())["serve"]["connections"]
        assert after - before == 1
        assert "repro_serve_connections_total" in await client.metrics_text()

    serve_test(check)


# --- protocol edges -------------------------------------------------------


def test_oversized_body_yields_413():
    async def check(server, client):
        status, _headers, body = await client._request(
            "POST", "/v1/eval", {"pad": "x" * 4096})
        assert status == 413
        assert client._idle == []         # answered "Connection: close"

    serve_test(check, config=ServerConfig(port=0, max_body_bytes=1024))


def test_keep_alive_serves_multiple_requests_per_connection():
    async def check(server, client):
        reader, writer = await asyncio.open_connection(client.host,
                                                       client.port)
        for _ in range(3):
            writer.write(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"200 OK" in head
            length = int(
                [line.split(b":")[1] for line in head.split(b"\r\n")
                 if line.lower().startswith(b"content-length")][0])
            await reader.readexactly(length)
        writer.close()

    serve_test(check)


# --- client connection reuse ----------------------------------------------


async def _stub_server(answer: Callable[[int, int], bool]) \
        -> tuple[asyncio.AbstractServer, int, list[int]]:
    """A keep-alive stub answering ``GET`` heads while ``answer(conn,
    nth)`` holds, hanging up otherwise; returns requests per connection."""
    received: list[int] = []

    async def handle(reader, writer):
        index = len(received)
        received.append(0)
        try:
            while True:
                await reader.readuntil(b"\r\n\r\n")
                received[index] += 1
                if not answer(index, received[index]):
                    break
                body = b'{"status": "ok"}'
                writer.write(b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n"
                             b"Content-Length: %d\r\n\r\n" % len(body)
                             + body)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    stub = await asyncio.start_server(handle, "127.0.0.1", 0)
    return stub, stub.sockets[0].getsockname()[1], received


def test_client_retries_a_closed_idle_connection_once():
    """The stub answers one request per connection and hangs up on the
    next: every reuse fails before any response byte, and each call then
    succeeds on exactly one fresh connection."""

    async def main():
        stub, port, received = await _stub_server(
            lambda _conn, nth: nth == 1)
        async with ServeClient("127.0.0.1", port) as client:
            for _ in range(3):
                assert (await client.health())["status"] == "ok"
        stub.close()
        await stub.wait_closed()
        return received

    # Three calls, two of them retried once: 3 + 2 requests.
    assert asyncio.run(main()) == [2, 2, 1]


def test_client_never_retries_a_fresh_connection():
    """After the first answer the stub hangs up on every request: the
    reused connection is retried once, and the fresh one's failure is
    raised instead of retried again."""

    async def main():
        stub, port, received = await _stub_server(
            lambda conn, nth: conn == 0 and nth == 1)
        async with ServeClient("127.0.0.1", port) as client:
            await client.health()
            with pytest.raises((asyncio.IncompleteReadError,
                                ConnectionError)):
                await client.health()
            assert client._idle == []
        stub.close()
        await stub.wait_closed()
        return received

    assert asyncio.run(main()) == [2, 1]


def test_pooled_connections_never_cross_responses():
    specs = [dict(SPEC, tech={"delta": 1.0 + 0.01 * i}) for i in range(24)]
    expected = [DesignSpec.from_jsonable(spec).fingerprint()
                for spec in specs]

    async def check(server, client):
        for order in (specs, specs[::-1]):   # the second gather reuses
            replies = await asyncio.gather(
                *(client.evaluate(spec) for spec in order))
            wanted = expected if order is specs else expected[::-1]
            assert [r["result"]["fingerprint"] for r in replies] == wanted
        assert len(client._idle) == len(specs)

    serve_test(check)


def test_aclose_leaves_no_open_transport():
    async def check(server, client):
        await asyncio.gather(*(client.health() for _ in range(4)))
        writers = [writer for _reader, writer in client._idle]
        assert len(writers) == 4
        assert not any(writer.is_closing() for writer in writers)
        await client.aclose()
        assert client._idle == []
        assert all(writer.is_closing() for writer in writers)

    serve_test(check)


# --- fault tolerance: circuit breaker, deadlines, graceful drain ----------


class _FlakyEngine(EvaluationEngine):
    """Fails the first ``failures`` engine calls, then behaves normally."""

    def __init__(self, failures: int,
                 error: type[Exception] = RuntimeError) -> None:
        super().__init__()
        self.remaining = failures
        self.error = error

    def map(self, *args, **kwargs):
        if self.remaining > 0:
            self.remaining -= 1
            raise self.error("engine sick")
        return super().map(*args, **kwargs)


class _SlowEngine(EvaluationEngine):
    """Sleeps before every engine call (exercises deadlines and drain)."""

    def __init__(self, delay: float) -> None:
        super().__init__()
        self.delay = delay

    def map(self, *args, **kwargs):
        import time as _time

        _time.sleep(self.delay)
        return super().map(*args, **kwargs)


def test_breaker_opens_after_consecutive_engine_failures():
    async def check(server, client):
        for _ in range(2):
            with pytest.raises(ServeError) as excinfo:
                await client.evaluate(SPEC)
            assert excinfo.value.status == 500
        # Threshold reached: the circuit is open, work is refused fast.
        with pytest.raises(ServeError) as excinfo:
            await client.evaluate(SPEC)
        assert excinfo.value.status == 503
        assert excinfo.value.error_type == "circuit_open"
        assert excinfo.value.retry_after is not None
        assert server.stats.rejected_breaker == 1
        assert (await client.health())["breaker"] == "open"

    serve_test(check,
               config=ServerConfig(port=0, breaker_threshold=2,
                                   breaker_reset_seconds=60.0),
               engine=_FlakyEngine(failures=10))


def test_breaker_half_open_probe_closes_on_success():
    async def check(server, client):
        with pytest.raises(ServeError) as excinfo:
            await client.evaluate(SPEC)
        assert excinfo.value.status == 500
        with pytest.raises(ServeError) as excinfo:
            await client.evaluate(SPEC)
        assert excinfo.value.status == 503
        await asyncio.sleep(0.12)            # past the cooldown
        # The engine has recovered: the half-open probe succeeds and
        # closes the circuit for everyone after it.
        payload = await client.evaluate(SPEC)
        assert payload["result"]["speedup"] > 0
        assert (await client.health())["breaker"] == "closed"
        payload = await client.evaluate(SPEC)
        assert payload["cached"] is True

    serve_test(check,
               config=ServerConfig(port=0, breaker_threshold=1,
                                   breaker_reset_seconds=0.05),
               engine=_FlakyEngine(failures=1))


@pytest.mark.parametrize("warm", [False, True],
                         ids=["executor-miss", "loop-hit"])
def test_engine_failures_trip_the_breaker_on_either_path(warm):
    engine = _FlakyEngine(failures=0)
    threads: list[str] = []
    original_map = engine.map

    def map_on(*args, **kwargs):
        threads.append(threading.current_thread().name)
        return original_map(*args, **kwargs)

    engine.map = map_on

    async def check(server, client):
        if warm:
            await client.evaluate(SPEC)
            threads.clear()
        engine.remaining = 2
        statuses = []
        for _ in range(3):
            with pytest.raises(ServeError) as excinfo:
                await client.evaluate(SPEC)
            statuses.append(excinfo.value.status)
        assert statuses == [500, 500, 503]
        assert server.stats.rejected_breaker == 1
        assert server.stats.loop_hits == 0
        assert (await client.health())["breaker"] == "open"

    serve_test(check,
               config=ServerConfig(port=0, breaker_threshold=2,
                                   breaker_reset_seconds=60.0),
               engine=engine)
    on_loop = [name == threading.main_thread().name for name in threads]
    assert on_loop == [warm, warm]


def test_repro_errors_never_trip_the_breaker():
    from repro.errors import ConfigurationError

    async def check(server, client):
        for _ in range(3):
            with pytest.raises(ServeError) as excinfo:
                await client.evaluate(SPEC)
            assert excinfo.value.status != 503
        assert server.stats.rejected_breaker == 0
        assert (await client.health())["breaker"] == "closed"

    serve_test(check,
               config=ServerConfig(port=0, breaker_threshold=1),
               engine=_FlakyEngine(failures=10, error=ConfigurationError))


async def _await_released(server: ReproServer) -> None:
    """Poll until the server has released every pending slot."""
    for _ in range(200):
        if server._pending == 0:
            return
        await asyncio.sleep(0.01)


def test_sweep_deadline_ends_stream_with_in_band_error():
    async def check(server, client):
        events = await client.sweep(SWEEP, options={"batch": False})
        assert [event["event"] for event in events] == ["start", "error"]
        assert events[-1]["error"]["type"] == "deadline_exceeded"
        assert server.stats.deadline_exceeded == 1
        await _await_released(server)
        assert server._pending == 0

    serve_test(check,
               config=ServerConfig(port=0, request_timeout=0.05),
               engine=_SlowEngine(delay=0.3))


def test_sweep_engine_failure_ends_stream_and_counts_for_the_breaker():
    async def check(server, client):
        events = await client.sweep(SWEEP, options={"batch": False})
        assert [event["event"] for event in events] == ["start", "error"]
        assert "engine sick" in events[-1]["error"]["message"]
        assert server._breaker._failures == 1
        await _await_released(server)
        assert server._pending == 0

    serve_test(check,
               config=ServerConfig(port=0, breaker_threshold=5),
               engine=_FlakyEngine(failures=1))


def test_request_deadline_yields_504():
    async def check(server, client):
        with pytest.raises(ServeError) as excinfo:
            await client.evaluate(SPEC)
        assert excinfo.value.status == 504
        assert excinfo.value.error_type == "deadline_exceeded"
        assert server.stats.deadline_exceeded == 1

    serve_test(check,
               config=ServerConfig(port=0, request_timeout=0.05),
               engine=_SlowEngine(delay=0.5))


def test_drain_waits_for_inflight_work_then_refuses_new_posts():
    async def check(server, client):
        inflight = asyncio.ensure_future(client.evaluate(SPEC))
        await asyncio.sleep(0.05)            # the eval is on the thread
        drained = await server.drain(timeout=5.0)
        assert drained is True               # ...and was allowed to finish
        payload = await inflight
        assert payload["result"]["speedup"] > 0
        denied = server._check_draining()
        assert denied is not None and denied.status == 503
        assert (await _health_direct(server)) == "closed-port"

    async def _health_direct(server):
        try:
            reader, writer = await asyncio.open_connection(
                server.config.host, server.config.port)
        except OSError:
            return "closed-port"
        writer.close()
        return "still-open"

    serve_test(check, engine=_SlowEngine(delay=0.2))


def test_client_reused_across_event_loops():
    """Idle connections belong to the loop that opened them: a client
    called again under a second ``asyncio.run`` opens a fresh one."""
    import threading

    loop = asyncio.new_event_loop()
    server = ReproServer(ServerConfig(port=0), engine=EvaluationEngine())
    host, port = loop.run_until_complete(server.start())
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        client = ServeClient(host, port)

        async def health_then_close():
            async with client:
                return await client.health()

        assert asyncio.run(client.health())["status"] == "ok"
        assert asyncio.run(health_then_close())["status"] == "ok"
        assert server.stats.connections == 2
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()
    assert not thread.is_alive()


def test_draining_server_answers_connection_close_then_hangs_up():
    """A keep-alive request answered during drain says ``Connection:
    close`` — what the server then does — so no client pools it."""

    async def check(server, client):
        reader, writer = await asyncio.open_connection(client.host,
                                                       client.port)
        body = json.dumps(SPEC).encode()
        writer.write(b"POST /v1/eval HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: %d\r\n\r\n" % len(body) + body)
        await writer.drain()
        await asyncio.sleep(0.05)            # the eval is on the thread
        drain = asyncio.ensure_future(server.drain(timeout=5.0))
        head = await reader.readuntil(b"\r\n\r\n")
        assert b"200 OK" in head
        assert b"Connection: close" in head
        length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
        await reader.readexactly(length)
        assert await asyncio.wait_for(reader.read(), 5.0) == b""
        assert await drain is True
        writer.close()

    serve_test(check, engine=_SlowEngine(delay=0.2))


def test_drain_closes_idle_keep_alive_connections():
    async def check(server, client):
        await client.health()
        [(reader, _writer)] = client._idle
        assert await server.drain(timeout=5.0) is True
        assert await asyncio.wait_for(reader.read(), 5.0) == b""

    serve_test(check)


def test_sigterm_drains_and_exits_cleanly(tmp_path):
    """End-to-end: `repro serve` under SIGTERM drains and exits 0."""
    import os
    import signal
    import subprocess
    import sys
    import time

    env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--drain-seconds", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        text=True)
    try:
        line = process.stdout.readline()
        assert "listening on" in line
        process.send_signal(signal.SIGTERM)
        output = process.communicate(timeout=15)[0]
    except Exception:
        process.kill()
        raise
    assert process.returncode == 0
    assert "draining" in output
    assert "drained cleanly" in output
