"""A small asyncio client for the ``/v1`` evaluation server.

The server speaks plain HTTP/1.1, so any client works — ``curl`` is the
documented interface (README "Serving").  This module exists so the
*bundled* consumers (perfbench's ``serve-eval`` load generator, the
burst tests and the failure-mode tests) exercise the real wire protocol
through one shared, dependency-free implementation instead of three
ad-hoc socket parsers.

:class:`ServeClient` reuses HTTP/1.1 keep-alive connections.  Each
client keeps a LIFO stack of idle connections: a call pops one (or opens
a new one when the stack is empty) and pushes it back only after a
complete fixed-length response that the server marked
``Connection: keep-alive``.  Concurrent calls therefore open extra
connections, so a burst of N calls still puts N connections on the
server, while a closed-loop caller holds one.  A reused connection the
server has meanwhile closed fails before any response byte arrives; the
call then retries exactly once on a fresh connection (every
fixed-length route is idempotent), and a fresh connection is never
retried.  :meth:`ServeClient.sweep_events` keeps its own connection per
stream.  :meth:`ServeClient.aclose` (or ``async with``) closes the idle
connections.  Errors surface as :class:`ServeError`, carrying the HTTP
status and the decoded error envelope.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Mapping

__all__ = ["ServeClient", "ServeError"]


class ServeError(Exception):
    """A non-2xx response from the server.

    Attributes:
        status: The HTTP status code.
        payload: The decoded response body — the error envelope
            (``{"error": {"type", "message", "path"}}``) for JSON
            bodies, else ``{"raw": <text>}``.
        retry_after: Parsed ``Retry-After`` header seconds, if sent.
    """

    def __init__(self, status: int, payload: Mapping[str, Any],
                 retry_after: float | None = None) -> None:
        error = payload.get("error", {}) if isinstance(payload, Mapping) \
            else {}
        super().__init__(
            f"HTTP {status}: {error.get('type', 'unknown')}: "
            f"{error.get('message', payload)}")
        self.status = status
        self.payload = payload
        self.retry_after = retry_after

    @property
    def error_type(self) -> str | None:
        """The envelope ``type`` tag (``rate_limited``, ...), if present."""
        error = self.payload.get("error")
        return error.get("type") if isinstance(error, Mapping) else None


class ServeClient:
    """Async client for one ``repro serve`` endpoint.

    Use it as ``async with ServeClient(host, port) as client:``, or call
    :meth:`aclose` when done, so idle keep-alive connections are closed.
    """

    def __init__(self, host: str, port: int,
                 client_id: str | None = None) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self._idle: list[tuple[asyncio.StreamReader,
                               asyncio.StreamWriter]] = []
        self._loop: asyncio.AbstractEventLoop | None = None

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Close every idle connection (calls in flight keep theirs)."""
        idle, self._idle = self._idle_stack(), []
        for _reader, writer in idle:
            await _close(writer)

    def _idle_stack(self) -> list[tuple[asyncio.StreamReader,
                                        asyncio.StreamWriter]]:
        # Connections belong to the loop that opened them; those left by
        # an earlier ``asyncio.run`` cannot be used (or closed) here.
        loop = asyncio.get_running_loop()
        if loop is not self._loop:
            self._loop, self._idle = loop, []
        return self._idle

    # --- raw HTTP ---------------------------------------------------------

    def _message(self, method: str, path: str, body: bytes,
                 close: bool) -> bytes:
        lines = [f"{method} {path} HTTP/1.1",
                 f"Host: {self.host}:{self.port}",
                 f"Content-Length: {len(body)}",
                 "Content-Type: application/json"]
        if close:
            lines.append("Connection: close")
        if self.client_id is not None:
            lines.append(f"X-Client-Id: {self.client_id}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

    @staticmethod
    async def _read_head(reader: asyncio.StreamReader) \
            -> tuple[int, dict[str, str]]:
        head = await reader.readuntil(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")[:-2]
        status = int(status_line.split(" ", 2)[1])
        headers = {}
        for line in header_lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    async def _request(self, method: str, path: str,
                       payload: Any = None) -> tuple[int, dict[str, str],
                                                     bytes]:
        body = b"" if payload is None \
            else json.dumps(payload).encode("utf-8")
        message = self._message(method, path, body, close=False)
        idle = self._idle_stack()
        if idle:
            reply = await self._exchange(*idle.pop(), message, reused=True)
            if reply is not None:
                return reply
        return await self._exchange(
            *await asyncio.open_connection(self.host, self.port), message,
            reused=False)

    async def _exchange(self, reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter, message: bytes,
                        reused: bool) \
            -> tuple[int, dict[str, str], bytes] | None:
        """One request and its response on one connection.

        Returns ``None`` when a reused connection fails before any
        response byte arrives (the server closed it while it sat idle),
        so the caller retries on a fresh one.
        """
        try:
            try:
                writer.write(message)
                await writer.drain()
                status, headers = await self._read_head(reader)
            except (ConnectionError, asyncio.IncompleteReadError) as error:
                if reused and not getattr(error, "partial", b""):
                    writer.close()
                    return None
                raise
            length = headers.get("content-length")
            data = await reader.readexactly(int(length)) if length \
                else await reader.read()
        except BaseException:
            writer.close()
            raise
        if length is not None \
                and headers.get("connection", "").lower() == "keep-alive":
            self._idle.append((reader, writer))
        else:
            await _close(writer)
        return status, headers, data

    @staticmethod
    def _decode(status: int, headers: Mapping[str, str],
                data: bytes) -> Any:
        try:
            payload = json.loads(data) if data else {}
        except json.JSONDecodeError:
            payload = {"raw": data.decode("utf-8", "replace")}
        if status >= 300:
            retry_after = headers.get("retry-after")
            raise ServeError(status, payload,
                             float(retry_after) if retry_after else None)
        return payload

    # --- /v1 API ----------------------------------------------------------

    async def health(self) -> dict[str, Any]:
        """``GET /v1/health``."""
        return self._decode(*await self._request("GET", "/v1/health"))

    async def cache(self) -> dict[str, Any]:
        """``GET /v1/cache`` — cache, stage, and serving counters."""
        return self._decode(*await self._request("GET", "/v1/cache"))

    async def metrics_text(self) -> str:
        """``GET /metrics`` — the raw Prometheus exposition text."""
        status, _headers, data = await self._request("GET", "/metrics")
        if status != 200:
            raise ServeError(status, {"raw": data.decode("utf-8",
                                                         "replace")})
        return data.decode("utf-8")

    async def evaluate(self, spec: Mapping[str, Any]) -> dict[str, Any]:
        """``POST /v1/eval`` — returns the full response (``result``,
        ``cached``, ``coalesced``)."""
        return self._decode(
            *await self._request("POST", "/v1/eval", spec))

    async def sweep_events(self, sweep: Mapping[str, Any],
                           options: Mapping[str, Any] | None = None) \
            -> AsyncIterator[dict[str, Any]]:
        """``POST /v1/sweep`` — yields decoded NDJSON events as they land.

        Closing the generator early (``aclose()`` / breaking out of the
        loop) drops the connection, which the server takes as the signal
        to cancel the remaining sweep work.
        """
        payload: dict[str, Any] = {"sweep": dict(sweep)}
        if options:
            payload["options"] = dict(options)
        body = json.dumps(payload).encode("utf-8")
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(self._message("POST", "/v1/sweep", body,
                                       close=True))
            await writer.drain()
            status, headers = await self._read_head(reader)
            if status != 200:
                length = int(headers.get("content-length", 0))
                data = await reader.readexactly(length) if length else b""
                self._decode(status, headers, data)    # raises ServeError
                return
            buffer = b""
            while True:                                # chunked frames
                size_line = await reader.readuntil(b"\r\n")
                size = int(size_line.strip(), 16)
                if size == 0:
                    break
                chunk = await reader.readexactly(size + 2)
                buffer += chunk[:-2]
                while b"\n" in buffer:
                    line, _, buffer = buffer.partition(b"\n")
                    if line.strip():
                        yield json.loads(line)
        finally:
            await _close(writer)

    async def sweep(self, sweep: Mapping[str, Any],
                    options: Mapping[str, Any] | None = None) \
            -> list[dict[str, Any]]:
        """``POST /v1/sweep``, collected: every event, in order."""
        return [event async for event in self.sweep_events(sweep, options)]


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
