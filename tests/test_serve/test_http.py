"""End-to-end HTTP tests: real sockets, real threads, real payloads.

Includes the PR's acceptance differential: on 10 fuzz seeds, answers
computed through the concurrent HTTP path must be **bit-identical** to
answers computed sequentially on a private engine — the serialized
(canonical) row lists are compared as exact JSON values.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from contextlib import contextmanager

import pytest

from repro.fuzz import DEFAULT_CONFIG, random_scenario
from repro.fuzz.render import RenderError, render_query
from repro.parser import parse_mapping, parse_program
from repro.relational import Fact, Instance
from repro.serve import QueryService, ReproServer, ServiceConfig
from repro.serve import http as serve_http
from repro.serve.http import ServeHandler
from repro.serve.protocol import serialize_rows
from repro.xr.segmentary import SegmentaryEngine


def f(rel, *args):
    return Fact(rel, args)


@contextmanager
def serving(mapping, instance, config: ServiceConfig | None = None,
            handler: type[ServeHandler] | None = None):
    """Boot a real server on an ephemeral port; yield (host, port, service).

    ``handler`` replaces :class:`ServeHandler` for every connection."""
    service = QueryService(mapping, instance, config or ServiceConfig())
    server = ReproServer(("127.0.0.1", 0), service)
    if handler is not None:
        server.RequestHandlerClass = handler
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[0], server.server_address[1], service
    finally:
        server.shutdown()
        thread.join(timeout=10.0)
        server.server_close()
        service.close()


def post(host, port, path, obj, connection=None):
    conn = connection or http.client.HTTPConnection(host, port, timeout=30)
    conn.request("POST", path, body=json.dumps(obj),
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    body = json.loads(response.read())
    if connection is None:
        conn.close()
    return response.status, body, response


def get(host, port, path):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    conn.request("GET", path)
    response = conn.getresponse()
    raw = response.read()
    conn.close()
    return response.status, raw


@pytest.fixture(scope="module")
def small_server():
    mapping = parse_mapping(
        """
        SOURCE R/2. TARGET P/2.
        R(x, y) -> P(x, y).
        P(x, y), P(x, z) -> y = z.
        """
    )
    instance = Instance(
        [f("R", "a", "b"), f("R", "a", "c"), f("R", "d", "e")]
    )
    with serving(mapping, instance) as (host, port, service):
        yield host, port, service


class TestRoutes:
    def test_healthz(self, small_server):
        host, port, _service = small_server
        status, raw = get(host, port, "/healthz")
        assert status == 200
        health = json.loads(raw)
        assert health["status"] == "ok"
        assert health["exchange"]["source_facts"] == 3

    def test_metrics_prometheus_text(self, small_server):
        host, port, _service = small_server
        status, raw = get(host, port, "/metrics")
        assert status == 200
        assert b"exchange_clusters_total" in raw

    def test_query_round_trip(self, small_server):
        host, port, _service = small_server
        status, body, _ = post(
            host, port, "/query", {"query": "q(x) :- P(x, y)."}
        )
        assert status == 200
        assert body["rows"] == [["'a'"], ["'d'"]]
        assert body["mode"] == "certain"
        assert body["degraded"] is False

    def test_deadline_degrades_over_http_not_500(self, small_server):
        host, port, _service = small_server
        status, body, _ = post(
            host, port, "/query",
            {"query": "q(x) :- P(x, y).", "deadline": 1e-9},
        )
        assert status == 200
        assert body["degraded"] is True
        assert ["'a'"] in body["unknown_candidates"]

    def test_keep_alive_reuses_connection(self, small_server):
        host, port, _service = small_server
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for _ in range(3):
                status, body, _ = post(
                    host, port, "/query",
                    {"query": "q(x) :- P(x, y)."}, connection=conn,
                )
                assert status == 200
        finally:
            conn.close()

    def test_bad_json_is_400(self, small_server):
        host, port, _service = small_server
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("POST", "/query", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            assert b"invalid JSON" in response.read()
        finally:
            conn.close()

    def test_unparsable_query_is_400(self, small_server):
        host, port, _service = small_server
        status, body, _ = post(host, port, "/query", {"query": "oops("})
        assert status == 400
        assert "unparsable" in body["error"]

    def test_unknown_path_is_404(self, small_server):
        host, port, _service = small_server
        status, _, _ = post(host, port, "/nope", {})
        assert status == 404
        assert get(host, port, "/nope")[0] == 404

    def test_admission_overflow_is_429_with_retry_after(self):
        mapping = parse_mapping(
            "SOURCE R/1. TARGET P/1. R(x) -> P(x)."
        )
        config = ServiceConfig(
            max_inflight=1, max_queue=0, queue_timeout=0.2
        )
        with serving(mapping, Instance([f("R", "a")]), config) as (
            host, port, service,
        ):
            service.admission._acquire()  # saturate the only slot
            try:
                status, body, response = post(
                    host, port, "/query", {"query": "q(x) :- P(x)."}
                )
                assert status == 429
                assert response.getheader("Retry-After") is not None
                assert body["retry_after"] > 0
            finally:
                service.admission._release()
            status, body, _ = post(
                host, port, "/query", {"query": "q(x) :- P(x)."}
            )
            assert status == 200
            assert body["rows"] == [["'a'"]]

    def test_update_then_query_over_http(self, small_server):
        """The single-writer seam end-to-end: a query issued after an
        update acknowledges must see the post-delta answers."""
        host, port, _service = small_server
        status, body, _ = post(
            host, port, "/update", {"updates": "+R('w', 'w')."}
        )
        assert status == 200
        assert body["applied"] == 1
        status, body, _ = post(
            host, port, "/query", {"query": "q(x) :- P(x, y)."}
        )
        assert status == 200
        assert ["'w'"] in body["rows"]
        # Clean up for the other module-scoped tests.
        post(host, port, "/update", {"updates": "-R('w', 'w')."})

    def test_update_of_target_relation_is_400(self, small_server):
        host, port, _service = small_server
        status, body, _ = post(
            host, port, "/update", {"updates": "+P('a', 'b')."}
        )
        assert status == 400

    def test_update_with_wrong_arity_is_400(self, small_server):
        host, port, _service = small_server
        status, body, _ = post(host, port, "/update", {"updates": "+R(7)."})
        assert status == 400
        assert "arity 2" in body["error"]


class Recording(ServeHandler):
    """Records, per connection, its handler thread, whether ``TCP_NODELAY``
    is set on the accepted socket, and the size of every socket write."""

    threads: list[threading.Thread]
    nodelay: list[int]
    writes: list[int]

    def setup(self) -> None:
        super().setup()
        self.threads.append(threading.current_thread())
        self.nodelay.append(
            self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        raw = self.wfile.raw  # an unbuffered writer has none: fails loudly
        write = raw.write

        def counted(data):
            self.writes.append(len(data))
            return write(data)

        raw.write = counted


def recording(**attributes) -> type[Recording]:
    """A fresh :class:`Recording` subclass with its own logs."""
    return type("Recorded", (Recording,), {
        "threads": [], "nodelay": [], "writes": [], **attributes,
    })


@pytest.fixture
def one_fact():
    mapping = parse_mapping("SOURCE R/1. TARGET P/1. R(x) -> P(x).")
    return mapping, Instance([f("R", "a")])


def exchange_raw(address, data: bytes) -> bytes:
    """Send ``data`` on a fresh socket and read until the server closes
    it; a server that keeps it open fails the read by timeout."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(data)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return received


class TestTransport:
    def test_accepted_socket_has_nodelay(self, one_fact):
        handler = recording()
        with serving(*one_fact, handler=handler) as (host, port, _service):
            assert get(host, port, "/healthz")[0] == 200
        assert handler.nodelay == [1]

    def test_small_json_response_leaves_in_one_write(self, one_fact):
        handler = recording()
        with serving(*one_fact, handler=handler) as (host, port, _service):
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                for request in range(1, 4):
                    status, body, _ = post(
                        host, port, "/query", {"query": "q(x) :- P(x)."},
                        connection=conn,
                    )
                    assert status == 200 and body["rows"] == [["'a'"]]
                    assert len(handler.writes) == request
            finally:
                conn.close()
        assert len(handler.threads) == 1  # one kept-alive connection

    def test_malformed_request_line_is_400(self, one_fact):
        with serving(*one_fact) as (host, port, _service):
            reply = exchange_raw((host, port), b"GET / x HTTP/1.1\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply
        assert reply.endswith(b"</html>\n")

    def test_one_word_request_line_is_400_with_a_status_line(self, one_fact):
        """A line with no version is not answered as HTTP/0.9 (a bare
        body a client cannot tell from a truncated response)."""
        with serving(*one_fact) as (host, port, _service):
            reply = exchange_raw((host, port), b"NONSENSE\r\n\r\n")
        head, _, _body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head

    def test_versionless_get_is_answered_with_headers(self, one_fact):
        with serving(*one_fact) as (host, port, _service):
            reply = exchange_raw((host, port), b"GET /healthz\r\n\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"Content-Type: application/json" in head
        assert b"Connection: close" in head
        assert json.loads(body)["status"] == "ok"

    def test_unknown_method_is_501(self, one_fact):
        with serving(*one_fact) as (host, port, _service):
            reply = exchange_raw(
                (host, port), b"BREW /pot HTTP/1.1\r\nHost: x\r\n\r\n"
            )
        assert reply.startswith(b"HTTP/1.1 501 ")
        assert reply.endswith(b"</html>\n")

    @pytest.mark.parametrize("header, error", [
        (b"Content-Length: 999999999", "out of range"),
        (b"Content-Length: ten", "bad Content-Length"),
        (b"Transfer-Encoding: chunked", "Content-Length required"),
    ])
    def test_unread_body_is_400_and_closes(self, one_fact, header, error):
        """The body was not read, so the connection cannot carry another
        request: the 400 says ``Connection: close`` and the server closes."""
        with serving(*one_fact) as (host, port, _service):
            reply = exchange_raw(
                (host, port),
                b"POST /query HTTP/1.1\r\nHost: x\r\n%s\r\n\r\n" % header,
            )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert error in json.loads(body)["error"]

    def test_expect_100_continue_is_answered_before_the_body(self, one_fact):
        body = json.dumps({"query": "q(x) :- P(x)."}).encode()
        with serving(*one_fact) as (host, port, _service):
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(
                    b"POST /query HTTP/1.1\r\nHost: x\r\n"
                    b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n"
                    % len(body)
                )
                assert sock.recv(65536).startswith(b"HTTP/1.1 100 ")
                sock.sendall(body)
                assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")


class TestBoundedConnections:
    def test_connection_over_the_cap_gets_503_and_closes(
        self, one_fact, monkeypatch
    ):
        monkeypatch.setattr(serve_http, "MAX_CONNECTIONS", 2)
        handler = recording()
        with serving(*one_fact, handler=handler) as (host, port, _service):
            held = [http.client.HTTPConnection(host, port, timeout=30)
                    for _ in range(2)]
            try:
                for conn in held:
                    status, _, _ = post(host, port, "/query",
                                        {"query": "q(x) :- P(x)."}, conn)
                    assert status == 200
                third = http.client.HTTPConnection(host, port, timeout=30)
                status, body, response = post(
                    host, port, "/query", {"query": "q(x) :- P(x)."}, third
                )
                assert status == 503
                assert response.getheader("Connection") == "close"
                assert body == {"error": "too many connections"}
                assert third.sock is None  # http.client saw the close
                assert len(handler.threads) == 2  # no thread for it
                held[0].close()
                handler.threads[0].join(timeout=10)
                assert not handler.threads[0].is_alive()
                status, body, _ = post(host, port, "/query",
                                       {"query": "q(x) :- P(x)."})
                assert status == 200 and body["rows"] == [["'a'"]]
            finally:
                for conn in held:
                    conn.close()

    def test_idle_connection_is_closed_and_its_thread_exits(self, one_fact):
        handler = recording(timeout=0.2)
        with serving(*one_fact, handler=handler) as (host, port, _service):
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
                assert sock.recv(65536) == b""  # closed by the server
                handler.threads[0].join(timeout=10)
                assert not handler.threads[0].is_alive()

    def test_real_bounds_clear_the_admission_bound_and_workload_gaps(self):
        config = ServiceConfig()
        assert serve_http.MAX_CONNECTIONS > config.max_inflight + config.max_queue
        assert ServeHandler.timeout == serve_http.IDLE_TIMEOUT_S >= 60.0


DIFFERENTIAL_SEEDS = 10


def _renderable_scenarios():
    """The first ``DIFFERENTIAL_SEEDS`` fuzz scenarios whose query has a
    text rendering (the wire protocol ships query *text*)."""
    scenarios = []
    seed = 0
    while len(scenarios) < DIFFERENTIAL_SEEDS and seed < 200:
        scenario = random_scenario(seed, DEFAULT_CONFIG)
        try:
            text = render_query(scenario.query)
        except RenderError:
            seed += 1
            continue
        scenarios.append((seed, scenario, text))
        seed += 1
    assert len(scenarios) == DIFFERENTIAL_SEEDS
    return scenarios


class TestConcurrentDifferential:
    def test_concurrent_answers_bit_identical_to_sequential(self):
        """Acceptance: on 10 fuzz seeds, every concurrently-served
        answer equals the sequentially-computed one, bit for bit."""
        for seed, scenario, query_text in _renderable_scenarios():
            # Sequential reference on a private engine.
            with SegmentaryEngine(
                scenario.mapping, scenario.instance.copy()
            ) as engine:
                query = parse_program(query_text)
                expected = {
                    mode: serialize_rows(
                        engine.answer_with_stats(query, mode=mode)[0]
                    )
                    for mode in ("certain", "possible")
                }
            with serving(
                scenario.mapping, scenario.instance.copy()
            ) as (host, port, _service):
                results: list = []
                errors: list[BaseException] = []
                barrier = threading.Barrier(6)

                def client(index: int) -> None:
                    try:
                        mode = ("certain", "possible")[index % 2]
                        barrier.wait()
                        for _ in range(3):
                            status, body, _ = post(
                                host, port, "/query",
                                {"query": query_text, "mode": mode},
                            )
                            assert status == 200, body
                            assert body["degraded"] is False
                            results.append((mode, body["rows"]))
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [
                    threading.Thread(target=client, args=(i,))
                    for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                if errors:
                    raise errors[0]
                assert len(results) == 18
                for mode, rows in results:
                    assert rows == expected[mode], (
                        f"seed {seed} diverged under concurrency ({mode})"
                    )
