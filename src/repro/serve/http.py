"""A minimal asyncio HTTP/1.1 layer — just enough protocol for serving.

The repository bakes in no web framework, and the server needs only a
narrow slice of HTTP: request-line + headers + ``Content-Length`` bodies
in, fixed-length JSON or chunked NDJSON streams out, keep-alive in
between.  This module implements exactly that slice over
``asyncio.StreamReader``/``StreamWriter`` and nothing more; routing,
queuing and evaluation live in :mod:`repro.serve.app`.

Design notes:

* Requests with bodies must carry ``Content-Length`` — chunked *request*
  bodies are refused with 411 (curl and the bundled client both send
  lengths, and refusing keeps the parser single-pass).
* Header and body sizes are capped (:data:`MAX_HEADER_BYTES`, the app's
  ``max_body_bytes``) so a misbehaving client cannot balloon memory.
* :class:`StreamingBody` writes ``Transfer-Encoding: chunked`` frames
  with an explicit ``drain()`` per flush, which is what lets the sweep
  handler detect a disconnected client *between* chunks and cancel the
  work it was streaming.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Mapping
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "HTTP_REASONS",
    "MAX_HEADER_BYTES",
    "ProtocolError",
    "Request",
    "Response",
    "StreamingBody",
    "read_request",
    "write_response",
]

#: Upper bound on the request line + headers block.
MAX_HEADER_BYTES = 16 * 1024

#: Reason phrases for every status the server emits.
HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(Exception):
    """A request that violates the HTTP slice we speak.

    Attributes:
        status: The HTTP status the connection handler answers with
            before closing the connection.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request.

    Attributes:
        method: Upper-cased method (``GET``, ``POST``, ...).
        path: Decoded path component (no query string).
        query: Decoded query parameters (last value wins per key).
        headers: Header mapping with lower-cased names.
        body: The request body (empty for body-less methods).
        client: Peer address string (``ip:port``), for quota keying.
    """

    method: str
    path: str
    query: Mapping[str, str]
    headers: Mapping[str, str]
    body: bytes
    client: str

    @property
    def keep_alive(self) -> bool:
        """Whether the connection should survive this exchange."""
        return self.headers.get("connection", "keep-alive").lower() != "close"


@dataclass
class Response:
    """One fixed-length response (streaming goes via :class:`StreamingBody`).

    Attributes:
        status: HTTP status code.
        body: Encoded response body.
        content_type: ``Content-Type`` header value.
        headers: Extra headers (e.g. ``Retry-After``).
    """

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)


async def read_request(reader: asyncio.StreamReader, client: str,
                       max_body_bytes: int) -> Request | None:
    """Parse one request; ``None`` on a clean EOF before any bytes.

    Raises:
        ProtocolError: when the request violates the supported slice
            (oversized headers/body, missing length, bad syntax).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError(400, "truncated request head") from error
    except asyncio.LimitOverrunError as error:
        raise ProtocolError(413, "request head too large") from error
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(413, "request head too large")

    try:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")[:-2]
        method, target, version = request_line.split(" ", 2)
    except ValueError as error:
        raise ProtocolError(400, "malformed request line") from error
    if not version.startswith("HTTP/1."):
        raise ProtocolError(400, f"unsupported protocol {version!r}")

    headers: dict[str, str] = {}
    for line in header_lines:
        name, separator, value = line.partition(":")
        if not separator or not name.strip():
            raise ProtocolError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ProtocolError(411, "chunked request bodies are not supported")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as error:
        raise ProtocolError(400, "bad Content-Length") from error
    if length < 0:
        raise ProtocolError(400, "bad Content-Length")
    if length > max_body_bytes:
        raise ProtocolError(413, f"body exceeds {max_body_bytes} bytes")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as error:
        raise ProtocolError(400, "truncated request body") from error

    parts = urlsplit(target)
    query = dict(parse_qsl(parts.query, keep_blank_values=True))
    return Request(method=method.upper(), path=parts.path or "/",
                   query=query, headers=headers, body=body, client=client)


def _head_lines(status: int, headers: dict[str, str]) -> bytes:
    reason = HTTP_REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def write_response(writer: asyncio.StreamWriter, response: Response,
                         keep_alive: bool) -> None:
    """Serialize a fixed-length response and drain the transport."""
    headers = {
        "Content-Type": response.content_type,
        "Content-Length": str(len(response.body)),
        "Connection": "keep-alive" if keep_alive else "close",
        **response.headers,
    }
    writer.write(_head_lines(response.status, headers) + response.body)
    await writer.drain()


class StreamingBody:
    """A chunked-transfer response body with per-flush disconnect checks.

    Usage::

        stream = StreamingBody(writer, content_type="application/x-ndjson")
        await stream.start()
        await stream.send(line_bytes)   # raises ConnectionError when the
        ...                             # peer has gone away
        await stream.finish()
    """

    def __init__(self, writer: asyncio.StreamWriter,
                 content_type: str = "application/x-ndjson",
                 headers: Mapping[str, str] | None = None) -> None:
        self._writer = writer
        self._content_type = content_type
        self._headers = dict(headers or {})
        self.bytes_sent = 0

    async def start(self, status: int = 200) -> None:
        """Send the response head opening a chunked body."""
        headers = {
            "Content-Type": self._content_type,
            "Transfer-Encoding": "chunked",
            "Connection": "close",
            **self._headers,
        }
        self._writer.write(_head_lines(status, headers))
        await self._writer.drain()

    async def send(self, payload: bytes) -> None:
        """Write one chunk and drain; raises ``ConnectionError`` if gone."""
        if not payload:
            return
        if self._writer.is_closing():
            raise ConnectionResetError("client disconnected")
        self._writer.write(f"{len(payload):x}\r\n".encode("latin-1")
                           + payload + b"\r\n")
        await self._writer.drain()
        self.bytes_sent += len(payload)

    async def finish(self) -> None:
        """Terminate the chunked body."""
        if self._writer.is_closing():
            return
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()
