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
  when the production exchange's host-speed-scaled stage time exceeds
  :data:`STAGE_CEILING_FACTOR` times its recorded median (a regression
  the ratio misses: one in code both sides share, or one too small to
  bring the batch exchange near the nested loop).
- ``serve-load URL`` drives a running ``repro serve --scenario S3`` with
  :data:`SERVE_CLIENTS` keep-alive clients.  It fails on any error, or
  when completed requests per second fall below :data:`SERVE_QPS_FLOOR`.

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

#: The medians at which commit 0a9445a (one solver per cluster family)
#: was accepted, over the paired 30 s ``perfbench/run.py`` runs that
#: judged it — except serve-rw ``pipeline_s``, which the stored-model
#: harvest moved for good (the median of its ten seed-1 pairs); like
#: every perfbench time, scaled to the reference host speed.
ACCEPTED_MEDIANS = {
    "tpch-sf1": {"ready_s": 0.428, "pipeline_s": 0.609},
    "serve-rw": {"ready_s": 0.579, "pipeline_s": 1.526},
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
#: The stages the two exchanges evaluate differently; interning, indexing
#: and envelopes are shared code and would dilute the ratio.
REFERENCE_STAGES = ("chase", "groundings", "violations")
#: Reference over production, ratio of the medians of those stages.
REFERENCE_FLOOR = 1.5
#: The production exchange's median time in those stages per cell, in
#: seconds at the host speed at which :mod:`perfbench.hostspeed`'s kernel
#: takes its ``REFERENCE_S`` (:func:`stage_median`): the median of three
#: runs of this gate on commit e4b3315, whose exchange code is unchanged
#: since.
STAGE_MEDIANS = {
    "M0": 0.041,
    "M9": 0.042,
    "M20": 0.043,
    "tpch-sf0.01-r0.2": 0.0019,
    "tpch-sf0.03-r0.2": 0.0052,
}
#: A fresh run's scaled stage median may take this many times the
#: recorded one.  On one host the scaled medians of unchanged code
#: already spread up to 1.23x the recorded ones, and scaling by a kernel
#: transfers between hosts only roughly; a quadratic membership test in
#: ``Instance.add`` read 2.8-10x.
STAGE_CEILING_FACTOR = 2.0
#: Timed production builds per cell for the ceiling.
STAGE_REPEATS = 7


def _cell(name: str):
    """The reduced GAV mapping and source instance of a named cell."""
    from repro.reduction.reduce import reduce_mapping

    if name.startswith("tpch-"):
        from repro.scenarios.tpch import parse_tpch_name, tpch_scenario

        scenario = tpch_scenario(*parse_tpch_name(name), seed=0)
        return reduce_mapping(scenario.mapping).gav, scenario.instance
    from repro.genomics.instances import build_instance, parse_scenario_name
    from repro.genomics.schema import genome_mapping

    instance = build_instance(parse_scenario_name(name)).instance
    return reduce_mapping(genome_mapping()).gav, instance


def _stage_seconds(timings: dict[str, float]) -> float:
    return sum(timings.get(stage, 0.0) for stage in REFERENCE_STAGES)


def stage_median(gav, instance, repeats: int = STAGE_REPEATS) -> float:
    """The production exchange's median stage time, scaled to the
    reference host speed.

    Each build starts from a collected heap and runs with the collector
    paused, as :class:`~repro.xr.segmentary.SegmentaryEngine` builds the
    exchange: a full collection another build triggered cannot land in
    it.  Each is scaled by ``REFERENCE_S`` over the CPU time of one run
    of the benchmark's host-speed kernel taken just before it, so a
    slower stretch of a shared host moves both alike.
    """
    from repro.xr.exchange import build_exchange_data

    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.hostspeed import REFERENCE_S, _kernel

    scaled = []
    for _ in range(repeats):
        started = time.process_time()
        _kernel()
        kernel_s = time.process_time() - started
        timings: dict[str, float] = {}
        gc.collect()
        gc.disable()
        try:
            build_exchange_data(gav, instance, timings=timings)
        finally:
            gc.enable()
        scaled.append(_stage_seconds(timings) * REFERENCE_S / kernel_s)
    return statistics.median(scaled)


def reference_ratio(name: str, repeats: int = REFERENCE_REPEATS) -> dict:
    """Production and reference stage medians on one cell, their ratio and
    the artifacts in which the two exchanges differ."""
    from repro.chase.gav import exchange_mismatches, reference_exchange_data
    from repro.xr.exchange import build_exchange_data

    gav, instance = _cell(name)
    builders = {"batch": build_exchange_data, "reference": reference_exchange_data}
    built = {side: build(gav, instance) for side, build in builders.items()}
    gc.collect()
    seconds: dict[str, list[float]] = {side: [] for side in builders}
    for _ in range(repeats):
        for side, build in builders.items():
            timings: dict[str, float] = {}
            built[side] = build(gav, instance, timings=timings)
            seconds[side].append(_stage_seconds(timings))
    batch_s = statistics.median(seconds["batch"])
    reference_s = statistics.median(seconds["reference"])
    return {
        "mismatches": exchange_mismatches(built["batch"], built["reference"]),
        "batch_s": batch_s,
        "reference_s": reference_s,
        "ratio": reference_s / batch_s if batch_s > 0 else math.inf,
        "scaled_s": stage_median(gav, instance),
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


# --------------------------------------------------------- serve-load

SERVE_CLIENTS = 8
#: Table 3 queries the clients send in turn: a join and a big projection.
SERVE_QUERIES = ("ep2", "xr2")
#: Requests started before this are not counted.
SERVE_WARMUP_S = 2.0
SERVE_WINDOW_S = 30.0
SERVE_QPS_FLOOR = 5.0


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

    parsed = urlparse(url)
    if parsed.hostname is None or parsed.port is None:
        raise ValueError(f"url must include host and port, got {url!r}")
    path = parsed.path.rstrip("/") + "/query"
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
            args=(parsed.hostname, parsed.port, path, bodies,
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
