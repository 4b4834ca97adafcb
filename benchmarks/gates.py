"""Three CI gates: wall-clock ceilings, the batch exchange's lead over the
nested-loop reference, and the serving tier under load.

Usage, from the repository root (every threshold is a constant below)::

    python benchmarks/gates.py ceilings
    PYTHONPATH=src python benchmarks/gates.py exchange-reference
    PYTHONPATH=src python benchmarks/gates.py serve-load http://127.0.0.1:8123

- ``ceilings`` reads the reports of ``perfbench/run.py --seed 0 --trace 0``
  for ``tpch-sf1`` and ``serve-rw``.  It fails when a report is missing,
  when a host-speed-scaled ``ready_s`` or ``pipeline_s`` exceeds
  :data:`CEILING_FACTOR` times its accepted median (a quadratic scan
  coming back), or when a tpch-sf1 update costs more than
  1 / :data:`INCREMENTAL_FLOOR` of a cold start.
- ``exchange-reference`` times the production exchange against the
  nested-loop :func:`~repro.chase.gav.reference_exchange_data` on each of
  :data:`REFERENCE_CELLS`.  It fails on any artifact that differs, when
  the reference is less than :data:`REFERENCE_FLOOR` times slower, or
  when the production exchange's host-speed-scaled time in
  :data:`CEILING_STAGES` exceeds :data:`STAGE_CEILING_FACTOR` times its
  recorded median (a regression
  the ratio misses: one in code both sides share, or one too small to
  bring the batch exchange near the nested loop).  The same ceiling
  holds each cell's scaled retract/re-insert of one source fact against
  :data:`UPDATE_MEDIANS` (an update that costs its relation instead of
  its delta).
- ``serve-load URL`` first sends :data:`SERVE_CLOSED_LOOP_REQUESTS`
  back-to-back requests on one keep-alive connection to a running
  ``repro serve --scenario S3``, and fails when their median latency
  exceeds :data:`SERVE_CLOSED_LOOP_P50_MS` (a per-response transport
  stall, which a paced load does not see).  Then it drives the server
  with :data:`SERVE_CLIENTS` keep-alive clients, and fails on any error
  or when completed requests per second fall below
  :data:`SERVE_QPS_FLOOR`.

Each check prints one ``ok``/``FAIL`` line; the exit status is 1 when any
check fails and 2 on a usage error.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import statistics
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Iterator
from urllib.parse import urlparse

ROOT = Path(__file__).resolve().parents[1]

#: One check's verdict and its log line.
Check = tuple[bool, str]

# ----------------------------------------------------------- ceilings

#: The medians at which each workload's times last moved for good, over
#: the ten paired 30 s seed-1 ``perfbench/run.py`` runs that judged the
#: change: tpch-sf1's at the id-native exchange (facts interned by the
#: chase), serve-rw's at the start-up without networkx (weak acyclicity
#: on the in-repo Tarjan); like every perfbench time, scaled to the
#: reference host speed.
ACCEPTED_MEDIANS = {
    "tpch-sf1": {"ready_s": 0.360, "pipeline_s": 0.509},
    "serve-rw": {"ready_s": 0.408, "pipeline_s": 0.806},
}
#: A fresh run may take this many times an accepted median: far above
#: shared-runner noise, far below what a quadratic scan costs.
CEILING_FACTOR = 3.0
#: tpch-sf1's cold start (``ready_s``) over its median single-fact update
#: (``update_p50_ms``) must be at least this; it reads ~2 000.
INCREMENTAL_FLOOR = 5.0


def report_path(workload: str) -> Path:
    """Where ``perfbench/run.py --workload W --seed 0 --trace 0`` reports."""
    return ROOT / ".perfbench" / f"{workload}-seed0-trace0" / "report.json"


def load_reports() -> dict[str, dict | None]:
    """The reports the ceilings read, ``None`` for a missing one."""
    reports: dict[str, dict | None] = {}
    for workload in ACCEPTED_MEDIANS:
        path = report_path(workload)
        reports[workload] = json.loads(path.read_text()) if path.is_file() else None
    return reports


def _value(report: dict, metric: str) -> float | None:
    return report.get("metrics", {}).get(metric, {}).get("value")


def check_ceilings(reports: dict[str, dict | None]) -> Iterator[Check]:
    for workload, medians in ACCEPTED_MEDIANS.items():
        report = reports.get(workload)
        if report is None:
            yield False, f"{workload}: no report at {report_path(workload)}"
            continue
        for metric, median in medians.items():
            value = _value(report, metric)
            ceiling = CEILING_FACTOR * median
            shown = "missing" if value is None else f"{value:.3f} s"
            yield (
                value is not None and value <= ceiling,
                f"{workload} {metric} {shown}, ceiling {ceiling:.3f} s",
            )
    report = reports.get("tpch-sf1")
    if report is None:
        return
    ready_s = _value(report, "ready_s")
    update_ms = _value(report, "update_p50_ms")
    if ready_s is None or not update_ms:
        yield False, f"tpch-sf1 ready_s {ready_s}, update_p50_ms {update_ms}"
        return
    ratio = ready_s * 1000 / update_ms
    yield (
        ratio >= INCREMENTAL_FLOOR,
        f"tpch-sf1 ready_s / update_p50_ms {ratio:.1f}x, "
        f"floor {INCREMENTAL_FLOOR:g}x",
    )


# ------------------------------------------------- exchange-reference

#: Three genomics cells (M at 0/9/20 % suspects) and two TPC-H cells.
REFERENCE_CELLS = ("M0", "M9", "M20", "tpch-sf0.01-r0.2", "tpch-sf0.03-r0.2")
#: Interleaved repeats per cell, after one warm-up build of each side.
REFERENCE_REPEATS = 5
#: The stages the two exchanges evaluate differently; the canonical
#: renumbering and indexing and the envelopes are shared code and would
#: dilute the ratio.
REFERENCE_STAGES = ("chase", "groundings", "violations")
#: Reference over production, ratio of the medians of those stages.
REFERENCE_FLOOR = 1.5
#: The production stages the per-cell ceiling holds.  The chase interns
#: each fact as it derives it and the index stage renumbers the ids, so a
#: slower universe shows in one of these two whichever side of the
#: boundary it lands on.
CEILING_STAGES = ("chase", "violations", "index")
#: The production exchange's median time in :data:`CEILING_STAGES` per
#: cell, in seconds at the host speed at which
#: :mod:`perfbench.hostspeed`'s kernel takes its ``REFERENCE_S``
#: (:func:`stage_median`): the median of three runs of this gate on the
#: commit that interned facts in the chase.
STAGE_MEDIANS = {
    "M0": 0.070,
    "M9": 0.075,
    "M20": 0.069,
    "tpch-sf0.01-r0.2": 0.0028,
    "tpch-sf0.03-r0.2": 0.0072,
}
#: A fresh run's scaled stage median may take this many times the
#: recorded one.  On one host the scaled medians of unchanged code
#: already spread up to 1.23x the recorded ones, and scaling by a kernel
#: transfers between hosts only roughly; a quadratic membership test in
#: ``Instance.add`` read 2.8-10x.
STAGE_CEILING_FACTOR = 2.0
#: Timed production builds per cell for the ceiling.
STAGE_REPEATS = 7
#: Each cell's median retract/re-insert of one source fact
#: (:func:`update_median`), in seconds at the reference host speed: the
#: median of three runs of this gate over the update code of commit
#: 73c0a11.  Held to :data:`STAGE_CEILING_FACTOR` times these, which
#: unchanged code read 0.98-1.06x of; an ``_IndexCache.index_for`` that
#: forgets its indexes read 2.5-2.8x on the M cells and 2.6x on
#: ``tpch-sf0.03-r0.2`` (1.6x on the smaller TPC-H cell).
UPDATE_MEDIANS = {
    "M0": 0.0046,
    "M9": 0.0050,
    "M20": 0.0050,
    "tpch-sf0.01-r0.2": 0.00045,
    "tpch-sf0.03-r0.2": 0.00049,
}
#: Timed retract/re-insert cycles per cell, after one untimed cycle.
UPDATE_REPEATS = 15
#: The source relation whose middle fact (in fact order) a cell's update
#: moves, by scenario family: relations other rules join on, so a delta
#: that probes whole relations costs visibly more (a TPC-H ``lineitem``
#: fact, which nothing joins on, read only 1.1-1.5x under the forgetful
#: index).
UPDATE_RELATIONS = {"genomics": "UniProt", "tpch": "orders"}


def _cell(name: str):
    """The reduced mapping, source instance and update relation of a
    named cell."""
    from repro.reduction.reduce import reduce_mapping

    if name.startswith("tpch-"):
        from repro.scenarios.tpch import parse_tpch_name, tpch_scenario

        scenario = tpch_scenario(*parse_tpch_name(name), seed=0)
        return (reduce_mapping(scenario.mapping), scenario.instance,
                UPDATE_RELATIONS["tpch"])
    from repro.genomics.instances import build_instance, parse_scenario_name
    from repro.genomics.schema import genome_mapping

    instance = build_instance(parse_scenario_name(name)).instance
    return reduce_mapping(genome_mapping()), instance, UPDATE_RELATIONS["genomics"]


def _stage_seconds(timings: dict[str, float], stages: tuple[str, ...]) -> float:
    return sum(timings.get(stage, 0.0) for stage in stages)


def _host_scale() -> float:
    """``REFERENCE_S`` over the CPU time of one run of the benchmark's
    host-speed kernel: multiplied into a time taken just after it, so a
    slower stretch of a shared host moves both alike."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.hostspeed import REFERENCE_S, _kernel

    started = time.process_time()
    _kernel()
    return REFERENCE_S / (time.process_time() - started)


def stage_median(gav, instance, repeats: int = STAGE_REPEATS) -> float:
    """The production exchange's median time in :data:`CEILING_STAGES`,
    scaled to the reference host speed (:func:`_host_scale`).

    Each build starts from a collected heap and runs with the collector
    paused, as :class:`~repro.xr.segmentary.SegmentaryEngine` builds the
    exchange: a full collection another build triggered cannot land in
    it.
    """
    from repro.xr.exchange import build_exchange_data

    scaled = []
    for _ in range(repeats):
        scale = _host_scale()
        timings: dict[str, float] = {}
        gc.collect()
        gc.disable()
        try:
            build_exchange_data(gav, instance, timings=timings)
        finally:
            gc.enable()
        scaled.append(_stage_seconds(timings, CEILING_STAGES) * scale)
    return statistics.median(scaled)


def update_median(
    reduced, instance, relation: str, repeats: int = UPDATE_REPEATS
) -> float:
    """The median time, scaled as :func:`stage_median`'s, of retracting
    the middle fact of ``relation`` (in fact order) and inserting it back
    through the update session of an exchanged engine (delta-chase,
    cluster maintenance and cache invalidation), each cycle from a
    collected heap with the collector paused."""
    from repro.incremental.delta import Delta
    from repro.relational.instance import fact_order
    from repro.xr.segmentary import SegmentaryEngine

    facts = sorted(instance.facts_of(relation), key=fact_order)
    fact = frozenset({facts[len(facts) // 2]})
    cycle = (Delta(retracts=fact), Delta(inserts=fact))
    scaled = []
    with SegmentaryEngine(reduced, instance.copy()) as engine:
        session = engine.update_session()
        session.apply_stream(cycle)
        for _ in range(repeats):
            scale = _host_scale()
            gc.collect()
            gc.disable()
            try:
                started = time.perf_counter()
                session.apply_stream(cycle)
                seconds = time.perf_counter() - started
            finally:
                gc.enable()
            scaled.append(seconds * scale)
    return statistics.median(scaled)


def reference_ratio(name: str, repeats: int = REFERENCE_REPEATS) -> dict:
    """Production and reference stage medians on one cell, their ratio,
    the artifacts in which the two exchanges differ, and the scaled
    production stage and update medians."""
    from repro.chase.gav import exchange_mismatches, reference_exchange_data
    from repro.xr.exchange import build_exchange_data

    reduced, instance, relation = _cell(name)
    gav = reduced.gav
    builders = {"batch": build_exchange_data, "reference": reference_exchange_data}
    built = {side: build(gav, instance) for side, build in builders.items()}
    gc.collect()
    seconds: dict[str, list[float]] = {side: [] for side in builders}
    for _ in range(repeats):
        for side, build in builders.items():
            timings: dict[str, float] = {}
            built[side] = build(gav, instance, timings=timings)
            seconds[side].append(_stage_seconds(timings, REFERENCE_STAGES))
    batch_s = statistics.median(seconds["batch"])
    reference_s = statistics.median(seconds["reference"])
    return {
        "mismatches": exchange_mismatches(built["batch"], built["reference"]),
        "batch_s": batch_s,
        "reference_s": reference_s,
        "ratio": reference_s / batch_s if batch_s > 0 else math.inf,
        "scaled_s": stage_median(gav, instance),
        "update_s": update_median(reduced, instance, relation),
    }


def check_exchange_reference() -> Iterator[Check]:
    for name in REFERENCE_CELLS:
        row = reference_ratio(name)
        yield (
            not row["mismatches"] and row["ratio"] >= REFERENCE_FLOOR,
            f"{name}: batch {row['batch_s']:.4f} s, reference "
            f"{row['reference_s']:.4f} s, {row['ratio']:.2f}x "
            f"(floor {REFERENCE_FLOOR:g}x), mismatches {row['mismatches']}",
        )
        ceiling = STAGE_CEILING_FACTOR * STAGE_MEDIANS[name]
        yield (
            row["scaled_s"] <= ceiling,
            f"{name}: batch stages {row['scaled_s']:.4f} s scaled, "
            f"ceiling {ceiling:.4f} s",
        )
        ceiling = STAGE_CEILING_FACTOR * UPDATE_MEDIANS[name]
        yield (
            row["update_s"] <= ceiling,
            f"{name}: update {row['update_s'] * 1000:.3f} ms scaled, "
            f"ceiling {ceiling * 1000:.3f} ms",
        )


# --------------------------------------------------------- serve-load

SERVE_CLIENTS = 8
#: Table 3 queries the clients send in turn: a join and a big projection.
SERVE_QUERIES = ("ep2", "xr2")
#: Requests started before this are not counted.
SERVE_WARMUP_S = 2.0
SERVE_WINDOW_S = 30.0
SERVE_QPS_FLOOR = 5.0
#: Back-to-back ``GET /healthz`` requests on one keep-alive connection,
#: sent before the load starts: the route does no solving, so their
#: latency is the transport's.
SERVE_CLOSED_LOOP_REQUESTS = 50
#: Ceiling on their median.  A response held back by Nagle until the
#: client's delayed ACK reads ~44 ms; a healthy round trip ~0.3 ms.
SERVE_CLOSED_LOOP_P50_MS = 20.0


def _endpoint(url: str) -> tuple[str, int, str]:
    """Host, port and base path of a server URL."""
    parsed = urlparse(url)
    if parsed.hostname is None or parsed.port is None:
        raise ValueError(f"url must include host and port, got {url!r}")
    return parsed.hostname, parsed.port, parsed.path.rstrip("/")


def closed_loop_latencies(
    url: str, requests: int = SERVE_CLOSED_LOOP_REQUESTS
) -> list[float]:
    """Milliseconds per ``GET /healthz``, each sent as soon as the last
    one was answered, on one connection; a request that fails reads
    ``inf``."""
    host, port, base = _endpoint(url)
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    latencies = []
    try:
        for _ in range(requests):
            started = time.perf_counter()
            try:
                connection.request("GET", base + "/healthz")
                response = connection.getresponse()
                response.read()
            except (OSError, http.client.HTTPException):
                connection.close()
                latencies.append(math.inf)
                continue
            elapsed_ms = (time.perf_counter() - started) * 1000
            latencies.append(elapsed_ms if response.status == 200 else math.inf)
    finally:
        connection.close()
    return latencies


def check_closed_loop(latencies_ms: list[float]) -> Check:
    p50 = statistics.median(latencies_ms)
    failed = sum(not math.isfinite(ms) for ms in latencies_ms)
    return failed == 0 and p50 <= SERVE_CLOSED_LOOP_P50_MS, (
        f"closed loop: {len(latencies_ms)} back-to-back requests on one "
        f"connection, p50 {p50:.2f} ms, ceiling "
        f"{SERVE_CLOSED_LOOP_P50_MS:g} ms, {failed} failed"
    )


def _client(
    host: str,
    port: int,
    path: str,
    bodies: list[bytes],
    measure_from: float,
    stop_at: float,
    tally: Counter,
    offset: int,
) -> None:
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    index = offset  # stagger the clients so the query mix interleaves
    try:
        while time.monotonic() < stop_at:
            measured = time.monotonic() >= measure_from
            body = bodies[index % len(bodies)]
            index += 1
            try:
                connection.request(
                    "POST", path, body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                status, payload = response.status, response.read()
            except (OSError, http.client.HTTPException):
                # A broken keep-alive connection fails every later
                # request on it: reconnect.
                connection.close()
                connection = http.client.HTTPConnection(host, port, timeout=30.0)
                if measured:
                    tally["errors"] += 1
                continue
            if not measured:
                continue
            if status == 429:
                tally["rejected"] += 1
            elif status != 200:
                tally["errors"] += 1
            else:
                try:
                    json.loads(payload)
                except ValueError:
                    tally["errors"] += 1
                else:
                    tally["completed"] += 1
    finally:
        connection.close()


def serve_load(
    url: str, window_s: float = SERVE_WINDOW_S, warmup_s: float = SERVE_WARMUP_S
) -> Counter:
    """``completed``/``rejected``/``errors`` counts of requests started in
    the window after the warm-up."""
    from repro.genomics.queries import query_text_by_name

    host, port, base = _endpoint(url)
    path = base + "/query"
    bodies = [
        json.dumps({"query": query_text_by_name(name)}).encode("utf-8")
        for name in SERVE_QUERIES
    ]
    measure_from = time.monotonic() + warmup_s
    stop_at = measure_from + window_s
    tallies = [Counter() for _ in range(SERVE_CLIENTS)]
    threads = [
        threading.Thread(
            target=_client,
            args=(host, port, path, bodies,
                  measure_from, stop_at, tally, offset),
            daemon=True,
        )
        for offset, tally in enumerate(tallies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sum(tallies, Counter())


def check_serve_load(url: str) -> Iterator[Check]:
    yield check_closed_loop(closed_loop_latencies(url))
    counts = serve_load(url)
    qps = counts["completed"] / SERVE_WINDOW_S
    yield counts["errors"] == 0, (
        f"{counts['errors']} error(s), {counts['rejected']} rejected"
    )
    yield qps >= SERVE_QPS_FLOOR, (
        f"{counts['completed']} completed in {SERVE_WINDOW_S:g} s: "
        f"{qps:.1f}/s, floor {SERVE_QPS_FLOOR:g}/s"
    )


def main(argv: list[str]) -> int:
    match argv:
        case ["ceilings"]:
            checks = check_ceilings(load_reports())
        case ["exchange-reference"]:
            checks = check_exchange_reference()
        case ["serve-load", url]:
            checks = check_serve_load(url)
        case _:
            print("usage: gates.py ceilings | exchange-reference | "
                  "serve-load URL", file=sys.stderr)
            return 2
    failed = False
    for ok, line in checks:
        print(f"{'ok  ' if ok else 'FAIL'}  {line}", flush=True)
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
