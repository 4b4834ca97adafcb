"""Load-test harness for the serving tier (``repro bench --serve``).

Serving numbers are first-class alongside the solve benchmarks: per
genomics scenario, ``clients`` threads hammer ``POST /query`` over
keep-alive connections for ``duration`` seconds after a ``warmup``
period, and the artifact records

- **p50 / p99 latency** — the 50th/99th percentiles of per-request
  wall-clock (connection reuse included, connect excluded), over the
  requests *started after* the warmup cutoff;
- **sustained QPS** — measured-window completions divided by the
  measured duration;
- error accounting: ``degraded`` (200 with ``degraded: true`` — the SLO
  layer working as designed, **not** an error), ``rejected`` (429
  admission sheds), and ``errors`` (everything else: non-200, bad JSON,
  transport failures).

Two modes:

- **in-process** (default): each scenario boots its own
  :class:`~repro.serve.ReproServer` on an ephemeral port, runs the
  clients, and shuts it down — the BENCH_PR9.json path;
- **remote** (``url=...``): hammer an externally-booted server (the CI
  smoke job boots ``repro serve`` as a real subprocess and points the
  harness at it; scenario loading is then the server's business).

The client is stdlib ``http.client`` — same no-new-deps rule as the
server.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable
from urllib.parse import urlparse

from repro.bench.reporting import format_table
from repro.genomics.instances import build_instance, parse_scenario_name
from repro.genomics.queries import query_text_by_name
from repro.genomics.schema import genome_mapping
from repro.reduction.reduce import reduce_mapping
from repro.serve.http import ReproServer
from repro.serve.service import QueryService, ServiceConfig

#: Default grid: one scenario per size at the paper's 3 % suspect rate.
SERVE_SCENARIOS: tuple[str, ...] = ("S3", "M3", "L3")

#: Default query mix: a join (ep2) and a big projection (xr2).
SERVE_QUERIES: tuple[str, ...] = ("ep2", "xr2")


@dataclass
class _ClientTally:
    """One client thread's raw observations."""

    latencies_s: list[float] = field(default_factory=list)
    completed: int = 0
    degraded: int = 0
    rejected: int = 0
    errors: int = 0


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _client_loop(
    host: str,
    port: int,
    path_prefix: str,
    bodies: list[bytes],
    start_barrier: threading.Barrier,
    measure_from: list[float],
    stop_at: list[float],
    tally: _ClientTally,
    offset: int,
) -> None:
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        start_barrier.wait()
        index = offset  # stagger the round-robin so the mix interleaves
        while time.monotonic() < stop_at[0]:
            body = bodies[index % len(bodies)]
            index += 1
            started = time.monotonic()
            measured = started >= measure_from[0]
            try:
                connection.request(
                    "POST",
                    path_prefix + "/query",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = response.read()
                status = response.status
            except Exception:
                if measured:
                    tally.errors += 1
                # A broken keep-alive connection poisons every later
                # request on it; reconnect and continue.
                connection.close()
                connection = http.client.HTTPConnection(
                    host, port, timeout=30.0
                )
                continue
            if not measured:
                continue
            elapsed = time.monotonic() - started
            if status == 200:
                tally.completed += 1
                tally.latencies_s.append(elapsed)
                try:
                    if json.loads(payload).get("degraded"):
                        tally.degraded += 1
                except json.JSONDecodeError:
                    tally.errors += 1
            elif status == 429:
                tally.rejected += 1
            else:
                tally.errors += 1
    finally:
        connection.close()


def hammer(
    host: str,
    port: int,
    clients: int,
    duration: float,
    warmup: float,
    queries: tuple[str, ...],
    path_prefix: str = "",
) -> dict:
    """Run the client fleet against one server; returns the metrics row."""
    bodies = [
        json.dumps({"query": query_text_by_name(name)}).encode("utf-8")
        for name in queries
    ]
    tallies = [_ClientTally() for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)
    # Boxed so every thread reads the post-barrier values.
    measure_from = [0.0]
    stop_at = [0.0]
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(host, port, path_prefix, bodies, barrier,
                  measure_from, stop_at, tallies[i], i),
            name=f"bench-client-{i}",
            daemon=True,
        )
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    now = time.monotonic()
    measure_from[0] = now + warmup
    stop_at[0] = now + warmup + duration
    barrier.wait()
    for thread in threads:
        thread.join()

    latencies = sorted(
        value for tally in tallies for value in tally.latencies_s
    )
    completed = sum(tally.completed for tally in tallies)
    return {
        "clients": clients,
        "duration_s": duration,
        "warmup_s": warmup,
        "queries": list(queries),
        "requests": completed,
        "degraded": sum(tally.degraded for tally in tallies),
        "rejected": sum(tally.rejected for tally in tallies),
        "errors": sum(tally.errors for tally in tallies),
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
        "qps": round(completed / duration, 2) if duration > 0 else 0.0,
    }


def run_serve_bench(
    scenarios: tuple[str, ...] | list[str] | None = None,
    clients: int = 8,
    duration: float = 5.0,
    warmup: float = 1.0,
    queries: tuple[str, ...] = SERVE_QUERIES,
    url: str | None = None,
    log: Callable[[str], None] | None = None,
) -> dict:
    """Run the load test and return the artifact payload.

    With ``url`` the fleet targets an external server (one row, keyed
    ``"remote"``); otherwise each scenario gets its own in-process
    server on an ephemeral port.
    """
    payload: dict = {
        "kind": "repro-serve-benchmark",
        "clients": clients,
        "duration_s": duration,
        "warmup_s": warmup,
        "queries": list(queries),
        "scenarios": {},
    }
    if url is not None:
        parsed = urlparse(url)
        if parsed.hostname is None or parsed.port is None:
            raise ValueError(f"url must include host and port, got {url!r}")
        row = hammer(
            parsed.hostname, parsed.port, clients, duration, warmup, queries,
            path_prefix=parsed.path.rstrip("/"),
        )
        payload["scenarios"]["remote"] = row
        if log is not None:
            log(_row_line("remote", row))
        return payload

    if scenarios is None:
        scenarios = SERVE_SCENARIOS
    reduced = reduce_mapping(genome_mapping())
    for name in scenarios:
        profile = parse_scenario_name(name)
        instance = build_instance(profile).instance
        service = QueryService(
            reduced,
            instance,
            ServiceConfig(
                max_inflight=max(8, clients),
                max_queue=max(16, clients),
            ),
        )
        server = ReproServer(("127.0.0.1", 0), service)
        thread = threading.Thread(
            target=server.serve_forever, name=f"bench-serve-{name}",
            daemon=True,
        )
        thread.start()
        try:
            host, port = server.server_address[:2]
            row = hammer(host, port, clients, duration, warmup, queries)
        finally:
            server.shutdown()
            thread.join(timeout=10.0)
            server.server_close()
            service.close()
        row["profile"] = {
            "name": name,
            "transcripts": profile.transcripts,
            "suspect_rate": profile.suspect_fraction,
        }
        payload["scenarios"][name] = row
        if log is not None:
            log(_row_line(name, row))
    return payload


def _row_line(name: str, row: dict) -> str:
    return (
        f"{name:>6}: {row['requests']} req  qps {row['qps']:.1f}  "
        f"p50 {row['p50_ms']:.1f}ms  p99 {row['p99_ms']:.1f}ms  "
        f"degraded {row['degraded']}  rejected {row['rejected']}  "
        f"errors {row['errors']}"
    )


def format_serve_table(payload: dict) -> str:
    """Render a serve-benchmark payload as an aligned table."""
    rows = [
        [
            name,
            row["requests"],
            f"{row['qps']:.1f}",
            f"{row['p50_ms']:.1f}",
            f"{row['p99_ms']:.1f}",
            row["degraded"],
            row["rejected"],
            row["errors"],
        ]
        for name, row in payload["scenarios"].items()
    ]
    return format_table(
        ["scenario", "requests", "qps", "p50[ms]", "p99[ms]",
         "degraded", "rejected", "errors"],
        rows,
        title=(
            f"serve load test: {payload['clients']} client(s), "
            f"{payload['duration_s']:g}s measured after "
            f"{payload['warmup_s']:g}s warmup"
        ),
    )
