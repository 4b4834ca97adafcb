"""The HTTP surface of ``repro serve`` — stdlib only.

:class:`ReproServer` is a :class:`http.server.ThreadingHTTPServer`
(one daemon thread per connection, ``socketserver`` threading mix-in
underneath) wrapping one :class:`~repro.serve.service.QueryService`.
HTTP/1.1 with explicit ``Content-Length`` on every response, so clients
keep connections alive across requests — the load harness depends on it.

Connections:

- **One no-delay write per response.**  The accepted socket has
  ``TCP_NODELAY`` set and the handler's writer is buffered
  (:data:`WRITE_BUFFER_BYTES`); ``handle_one_request`` and ``finish``
  flush it, so a response that fits the buffer leaves as one write.
  Written as a head and then a body on a Nagle socket, the body waited
  for the client's delayed ACK of the head: ~40 ms on every request a
  kept-alive client sent right after the previous answer.
- **Bounded threads.**  At most :data:`MAX_CONNECTIONS` connections are
  served at once, one thread each.  The listening thread answers any
  connection over the cap itself, with ``503`` and ``Connection:
  close``, and starts no thread for it.
- **Idle timeout.**  A connection that sits idle (or stalls mid-request)
  for :data:`IDLE_TIMEOUT_S` is closed and its thread exits.
- A ``400`` sent before the request body was read (a missing, malformed
  or oversize ``Content-Length``) closes the connection, since the
  unread body would otherwise be parsed as the next request.

Routes:

========  =========  ====================================================
method    path       meaning
========  =========  ====================================================
GET       /healthz   liveness + occupancy snapshot (JSON)
GET       /metrics   Prometheus exposition text of the live registry
POST      /query     answer an XR query (see :mod:`repro.serve.protocol`)
POST      /update    apply an update stream through the single writer
========  =========  ====================================================

Status mapping: 400 for protocol errors (malformed body, unparsable
query), 429 + ``Retry-After`` for admission rejections, 404/405 for bad
routes, 500 only for genuine bugs — an over-budget query is **not** an
error (it returns 200 with ``degraded: true`` and the unknown
candidates listed, the PR 4 semantics).

:func:`run_serve` is the CLI entry: it serves from a background thread
and parks the main thread on an event that SIGTERM/SIGINT set, then
shuts the listener down cleanly (finishing in-flight requests) — calling
``shutdown()`` from the serving thread itself would deadlock, which is
why the signal handler only sets the event.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.serve.admission import AdmissionRejected
from repro.serve.protocol import (
    ProtocolError,
    parse_query_request,
    parse_update_request,
)
from repro.serve.service import QueryService

#: Refuse bodies above this size before reading them (a parse-time
#: memory bound, not a capacity knob).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Connections served at once, each on its own thread.  Above the
#: default admission bound (``max_inflight + max_queue`` = 24), so
#: admission, not this cap, sheds load first.
MAX_CONNECTIONS = 64
#: Seconds a connection may wait on its client (idle between requests,
#: or mid-request) before the server closes it.  Far above any gap a
#: working keep-alive client leaves between requests.
IDLE_TIMEOUT_S = 60.0
#: Per-connection write buffer: a response that fits leaves in one write.
WRITE_BUFFER_BYTES = 64 * 1024
#: After answering an over-cap connection, the listening thread reads
#: what the client still sends for at most about this long before it
#: closes the socket: closing on unread bytes would reset the connection
#: and could drop the 503 before the client reads it.
REFUSAL_LINGER_S = 0.5

_BUSY = json.dumps({"error": "too many connections"}).encode("utf-8")
#: The whole over-cap response, sent in one write.
REFUSAL = (
    b"HTTP/1.1 503 Service Unavailable\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: %d\r\n"
    b"Connection: close\r\n"
    b"Retry-After: 1\r\n\r\n%s" % (len(_BUSY), _BUSY)
)


class ReproServer(ThreadingHTTPServer):
    """One listening socket, one shared :class:`QueryService`, at most
    :data:`MAX_CONNECTIONS` connection threads."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: QueryService):
        super().__init__(address, ServeHandler)
        self.service = service
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)

    def process_request(self, request, client_address) -> None:
        # Runs on the listening thread, once per accepted connection.
        if not self._slots.acquire(blocking=False):
            self._refuse(request)
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()  # no thread took the slot
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    @staticmethod
    def _refuse(request: socket.socket) -> None:
        """Send :data:`REFUSAL`, half-close, and read until the client
        closes or :data:`REFUSAL_LINGER_S` passes."""
        deadline = time.monotonic() + REFUSAL_LINGER_S
        try:
            request.settimeout(REFUSAL_LINGER_S)
            request.sendall(REFUSAL)
            request.shutdown(socket.SHUT_WR)
            while time.monotonic() < deadline and request.recv(65536):
                pass
        except OSError:
            pass


class ServeHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # A request line without a version (``GET /x`` or one word) is
    # answered with a status line and headers, never as HTTP/0.9: a bare
    # body is indistinguishable from a truncated response.
    default_request_version = "HTTP/1.1"
    server_version = "repro-serve"
    # One no-delay write per response, and a bounded wait on the client:
    # see "Connections" in the module docstring.
    disable_nagle_algorithm = True
    wbufsize = WRITE_BUFFER_BYTES
    timeout = IDLE_TIMEOUT_S

    # The default handler logs every request to stderr; a load test at a
    # few hundred QPS would drown the console.
    def log_message(self, format: str, *args) -> None:
        pass

    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    def handle_expect_100(self) -> bool:
        # The client holds the body back until it reads the interim
        # response, which the buffered writer would otherwise keep.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    # -------------------------------------------------------------- GET

    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._send_json(200, self.service.health())
        elif self.path == "/metrics":
            self._send_text(200, self.service.metrics_text())
        else:
            self._send_json(404, {"error": f"no such path: {self.path}"})

    # ------------------------------------------------------------- POST

    def do_POST(self) -> None:
        if self.path not in ("/query", "/update"):
            self._send_json(404, {"error": f"no such path: {self.path}"})
            return
        try:
            payload = self._read_json_body()
            if self.path == "/query":
                body = self.service.query(parse_query_request(payload))
            else:
                body = self.service.update(parse_update_request(payload))
        except ProtocolError as exc:
            self._send_json(400, {"error": str(exc)})
        except AdmissionRejected as exc:
            self._send_json(
                429,
                {"error": exc.reason, "retry_after": exc.retry_after},
                extra_headers={"Retry-After": f"{exc.retry_after:.0f}"},
            )
        except ValueError as exc:
            # e.g. an update naming a non-source relation.
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — the 500 boundary
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._send_json(200, body)

    def _read_json_body(self) -> object:
        length = self.headers.get("Content-Length")
        # An error before the body is read would leave it on the
        # connection as the next request: answer it, then close.
        close_after, self.close_connection = self.close_connection, True
        if length is None:
            raise ProtocolError("Content-Length required")
        try:
            size = int(length)
        except ValueError:
            raise ProtocolError(f"bad Content-Length: {length!r}") from None
        if size < 0 or size > MAX_BODY_BYTES:
            raise ProtocolError(f"body size {size} out of range")
        raw = self.rfile.read(size)
        self.close_connection = close_after
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"invalid JSON body: {exc}") from exc

    # ---------------------------------------------------------- writing

    def _send_json(
        self,
        code: int,
        body: dict,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        encoded = json.dumps(body, sort_keys=True).encode("utf-8")
        self._send_bytes(code, encoded, "application/json", extra_headers)

    def _send_text(self, code: int, text: str) -> None:
        self._send_bytes(
            code, text.encode("utf-8"), "text/plain; charset=utf-8"
        )

    def _send_bytes(
        self,
        code: int,
        encoded: bytes,
        content_type: str,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(encoded)


def run_serve(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8080,
    log: Callable[[str], None] = print,
) -> int:
    """Serve until SIGTERM/SIGINT; returns 0 on clean shutdown.

    Must be called from the main thread (signal handlers).  The listener
    runs in a background thread; the main thread parks on an event so
    ``shutdown()`` is never called from the serving thread (deadlock).
    """
    server = ReproServer((host, port), service)
    stop = threading.Event()

    def handle_signal(signum, frame) -> None:
        stop.set()

    previous = {
        signum: signal.signal(signum, handle_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    bound_host, bound_port = server.server_address[:2]
    log(f"% serving on http://{bound_host}:{bound_port} (SIGTERM to stop)")
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.shutdown()
        thread.join(timeout=10.0)
        server.server_close()
        service.close()
    log("% shut down cleanly")
    return 0
