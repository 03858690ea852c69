"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

The serving subsystem deliberately avoids web frameworks: the protocol
surface it needs is small (JSON request bodies, JSON responses,
keep-alive), and a dependency-free reader/writer pair keeps the service
deployable anywhere the library runs.  This module knows nothing about
routes or the engine — it turns bytes into :class:`HttpRequest` objects
and response payloads back into bytes, enforcing the size limits that
protect a long-lived process from hostile or broken clients.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from urllib.parse import parse_qsl, unquote, urlsplit

#: Default cap on request bodies; a release registration for ~10^5 records
#: fits comfortably, a runaway client does not.
MAX_BODY_BYTES = 32 * 1024 * 1024
MAX_HEADER_LINE = 16 * 1024
MAX_HEADERS = 100

REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A protocol- or application-level failure with an HTTP status.

    Handlers raise this to short-circuit into a JSON error response;
    ``code`` is a stable machine-readable tag clients can switch on
    (``"queue_full"``, ``"unknown_release"``, ...), ``headers`` carries
    extras such as ``Retry-After``.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        code: str = "error",
        headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.code = code
        self.headers = headers or {}


@dataclass(frozen=True)
class EncodedResponse:
    """A response body a handler has already encoded.

    The connection loop writes ``body`` as it is, with ``content_type``,
    instead of JSON-encoding a payload: the Prometheus ``/metrics``
    exposition is text, and a cached posterior is JSON encoded once,
    where it was solved, not again on every answer.
    """

    body: bytes
    content_type: str = "application/json"


@dataclass
class HttpRequest:
    """One parsed request: method, split path, query, headers, raw body."""

    method: str
    path: str
    segments: tuple[str, ...]
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""
    #: Parsed request deadline, attached by the serving layer (the
    #: framing layer only carries it; see ``repro.service.deadline``).
    deadline: object | None = None

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def json(self):
        """The body decoded as JSON; empty bodies decode to ``None``."""
        if not self.body:
            return None
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(
                400, f"request body is not valid JSON: {exc}", code="bad_json"
            ) from exc


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readline()
    except ValueError as exc:
        # The StreamReader's own limit (64 KiB by default) trips before
        # MAX_HEADER_LINE can; surface it as a 400, not a dropped socket.
        raise HttpError(400, "header line too long", code="bad_request") from exc
    if len(line) > MAX_HEADER_LINE:
        raise HttpError(400, "header line too long", code="bad_request")
    return line


async def read_request(
    reader: asyncio.StreamReader, *, max_body: int = MAX_BODY_BYTES
) -> HttpRequest | None:
    """Parse one request off ``reader``; ``None`` on clean end-of-stream.

    Raises :class:`HttpError` on malformed framing (the connection
    handler answers it and closes).  Only identity bodies with an
    explicit ``Content-Length`` are accepted — the JSON API never needs
    chunked uploads.
    """
    request_line = await _read_line(reader)
    if not request_line or request_line in (b"\r\n", b"\n"):
        return None
    try:
        text = request_line.decode("ascii").strip()
        method, target, version = text.split(" ", 2)
    except (UnicodeDecodeError, ValueError) as exc:
        raise HttpError(400, "malformed request line", code="bad_request") from exc
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version!r}", code="bad_request")

    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if not line:
            raise HttpError(400, "truncated headers", code="bad_request")
        if line in (b"\r\n", b"\n"):
            break
        if len(headers) >= MAX_HEADERS:
            raise HttpError(400, "too many headers", code="bad_request")
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError as exc:
            raise HttpError(400, "undecodable header", code="bad_request") from exc
        headers[name.strip().lower()] = value.strip()

    if headers.get("transfer-encoding"):
        raise HttpError(
            501, "chunked request bodies are not supported", code="bad_request"
        )
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError as exc:
            raise HttpError(400, "bad Content-Length", code="bad_request") from exc
        if length < 0:
            raise HttpError(400, "bad Content-Length", code="bad_request")
        if length > max_body:
            raise HttpError(
                413,
                f"request body of {length} bytes exceeds the {max_body} limit",
                code="body_too_large",
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "truncated request body", code="bad_request") from exc

    split = urlsplit(target)
    path = unquote(split.path)
    segments = tuple(part for part in path.split("/") if part)
    query = dict(parse_qsl(split.query))
    return HttpRequest(
        method=method.upper(),
        path=path,
        segments=segments,
        query=query,
        headers=headers,
        body=body,
    )


def response_bytes(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Serialize one HTTP/1.1 response (explicit length, no chunking)."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    return head + body


def json_body(payload) -> bytes:
    """Encode a response payload as compact UTF-8 JSON."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def json_splice(head: dict, body: bytes) -> bytes:
    """``json_body({**head, **payload})`` given ``body = json_body(payload)``.

    ``head`` and ``payload`` must be non-empty objects with no key in
    common; the splice then costs the encoding of ``head`` alone.
    """
    return json_body(head)[:-1] + b"," + body[1:]


def error_body(error: HttpError) -> bytes:
    """The uniform JSON error envelope."""
    return json_body({"error": {"code": error.code, "message": error.message}})
