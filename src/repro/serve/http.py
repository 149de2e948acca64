"""Minimal HTTP/1.1 framing over ``asyncio`` streams.

The service tier keeps the repository's no-new-hard-dependencies
discipline: no web framework, no third-party HTTP stack — just enough
hand-rolled HTTP/1.1 over :func:`asyncio.start_server` for the gateway's
needs.  Supported surface:

* request parsing — request line, headers, ``Content-Length`` bodies,
  keep-alive (the HTTP/1.1 default) and ``Connection: close``;
* fixed-length responses (:func:`render_response` / :func:`json_response`);
* ``Transfer-Encoding: chunked`` responses (:class:`ChunkedWriter`) for
  the match-streaming endpoint, one chunk per NDJSON event.

Anything fancier (request trailers, continuation lines, pipelined request
bodies, TE on requests) is rejected loudly with the right 4xx/5xx status
rather than half-implemented.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Iterable, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

#: Upper bound on the request head (request line + headers), bytes.
MAX_HEAD_BYTES = 32 * 1024

#: Default upper bound on a request body, bytes (the gateway overrides
#: per instance).  Large enough for a generous NDJSON frame batch, small
#: enough that one client cannot balloon gateway memory.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Reason phrases for every status the gateway emits.
REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HTTPError(Exception):
    """A request-level failure with a definite HTTP status.

    Raised anywhere inside request handling; the connection loop renders
    it as a JSON error response.  ``headers`` lets a raiser attach e.g.
    ``Retry-After``.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        code: Optional[str] = None,
        headers: Iterable[Tuple[str, str]] = (),
    ):
        super().__init__(message)
        self.status = int(status)
        self.message = message
        #: Machine-readable error code (``"quota_exceeded"``, ...).
        self.code = code or REASONS.get(self.status, "error").lower().replace(
            " ", "_"
        )
        self.headers = tuple(headers)


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "params", "headers", "body")

    def __init__(
        self,
        method: str,
        path: str,
        params: Dict[str, str],
        headers: Dict[str, str],
        body: bytes,
    ):
        self.method = method
        #: URL-decoded path, query string stripped.
        self.path = path
        #: Query-string parameters (last value wins).
        self.params = params
        #: Header map, keys lowercased.
        self.headers = headers
        self.body = body

    def json(self):
        """The body parsed as JSON; :class:`HTTPError` 400 on garbage."""
        if not self.body:
            raise HTTPError(400, "a JSON request body is required")
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise HTTPError(400, f"malformed JSON body: {exc}") from exc

    def wants_close(self) -> bool:
        """True when the client asked to drop keep-alive."""
        return self.headers.get("connection", "").lower() == "close"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Request({self.method} {self.path}, {len(self.body)}B)"


async def read_request(
    reader: asyncio.StreamReader,
    max_body: int = MAX_BODY_BYTES,
) -> Optional[Request]:
    """Read one request off the wire; ``None`` on a clean EOF.

    Raises :class:`HTTPError` on malformed framing (the caller answers it
    and closes the connection) and ``asyncio.IncompleteReadError`` /
    ``ConnectionError`` when the peer vanishes mid-request.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests: keep-alive ended
        raise
    except asyncio.LimitOverrunError as exc:
        raise HTTPError(
            400, f"request head exceeds {MAX_HEAD_BYTES} bytes"
        ) from exc
    if len(head) > MAX_HEAD_BYTES:
        raise HTTPError(400, f"request head exceeds {MAX_HEAD_BYTES} bytes")
    lines = head.decode("latin-1").split("\r\n")
    request_line = lines[0]
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise HTTPError(400, f"malformed request line {request_line!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HTTPError(400, f"unsupported protocol version {version!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if line[0] in " \t":
            raise HTTPError(400, "header continuation lines are not supported")
        name, sep, value = line.partition(":")
        if not sep:
            raise HTTPError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise HTTPError(
            501, "request bodies must use Content-Length, not Transfer-Encoding"
        )
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise HTTPError(400, "malformed Content-Length") from exc
        if length < 0:
            raise HTTPError(400, "malformed Content-Length")
        if length > max_body:
            raise HTTPError(
                413, f"request body exceeds {max_body} bytes"
            )
        if length:
            body = await reader.readexactly(length)
    split = urlsplit(target)
    params = {key: value for key, value in parse_qsl(split.query)}
    return Request(method, unquote(split.path), params, headers, body)


def render_response(
    status: int,
    body: bytes = b"",
    content_type: str = "application/json",
    headers: Iterable[Tuple[str, str]] = (),
    close: bool = False,
) -> bytes:
    """Serialize one fixed-length response (head + body)."""
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    if body or status not in (204,):
        lines.append(f"Content-Type: {content_type}")
    lines.append(f"Content-Length: {len(body)}")
    for name, value in headers:
        lines.append(f"{name}: {value}")
    lines.append(f"Connection: {'close' if close else 'keep-alive'}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def json_response(
    status: int,
    payload,
    headers: Iterable[Tuple[str, str]] = (),
    close: bool = False,
) -> bytes:
    """Serialize a JSON response with deterministic key order."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return render_response(status, body, headers=headers, close=close)


def error_response(error: HTTPError, close: bool = False) -> bytes:
    """Render an :class:`HTTPError` as its JSON wire form."""
    return json_response(
        error.status,
        {"error": error.code, "message": error.message},
        headers=error.headers,
        close=close,
    )


def _event_chunk(payload) -> bytes:
    """One NDJSON event (deterministic JSON plus the line feed) as one
    chunk of a chunked body: hex size line, data, CRLF."""
    data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


class ChunkedWriter:
    """A ``Transfer-Encoding: chunked`` response, one event per chunk.

    Used by the match-streaming endpoint: after :meth:`start`, every
    event is its own chunk.  :meth:`send_events` writes all the events of
    one wake-up of the streamer with one ``write`` and awaits one
    transport drain — which is where per-connection TCP backpressure
    lands on the producer.  :meth:`finish` writes the terminating zero
    chunk (keep-alive preserved).
    """

    def __init__(self, writer: asyncio.StreamWriter):
        self._writer = writer
        self._started = False
        self._finished = False

    async def start(
        self,
        status: int = 200,
        content_type: str = "application/x-ndjson",
        headers: Iterable[Tuple[str, str]] = (),
    ) -> None:
        lines = [
            f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            "Transfer-Encoding: chunked",
        ]
        for name, value in headers:
            lines.append(f"{name}: {value}")
        lines.append("Connection: keep-alive")
        self._writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await self._writer.drain()
        self._started = True

    async def send_events(self, payloads: Iterable) -> None:
        """NDJSON events, one chunk each, in one write and one drain."""
        self._writer.write(b"".join(map(_event_chunk, payloads)))
        await self._writer.drain()

    async def finish(self) -> None:
        if self._started and not self._finished:
            self._writer.write(b"0\r\n\r\n")
            await self._writer.drain()
            self._finished = True
