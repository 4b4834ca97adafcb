"""What the benchmark measures: workloads, metrics and predictions.

``BENCHMARK.json`` at the repository root is :func:`benchmark_json`
rendered; ``perfbench/tests`` checks the two agree.  The ``moves`` of each
per-layer metric is written down before any optimisation is measured: the
end-to-end metric and workload a change to that layer should move.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 30


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = (
    Workload(
        "tpch-sf1",
        "TPC-H SF1 at 2% injected conflicts: ~70 tiny clusters per query, so "
        "exchange and program build carry it and solver work should not.",
    ),
    Workload(
        "serve-rw",
        "repro serve under 8 req/s open-loop reads plus an update every 5 s: "
        "HTTP, admission, rwlock, cache hits, incremental apply, invalidation.",
    ),
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    bound: float
    means: str
    #: The run phase whose host-speed factor scales it (None: not a time).
    phase: str | None = None
    better: str = "lower"


# Times are seconds (or ms) at the reference host speed: measured, then
# multiplied by the host-speed factor of their phase (perfbench.hostspeed).
END_TO_END = (
    EndToEnd(
        "setup_s", "s", 0.25,
        "fresh interpreter through import repro, parse_mapping and "
        "reduce_mapping of the workload's mapping; median of 11",
        "setup",
    ),
    EndToEnd(
        "ready_s", "s", 0.25,
        "batch: parse_instance plus exchange and envelope, until the engine "
        "can answer; serve-rw: spawning the server until /healthz answers; "
        "median over passes or spawns",
        "start",
    ),
    EndToEnd(
        "pipeline_s", "s", 0.25,
        "ready_s plus answering every query of the set once on that engine "
        "(serve-rw: the warm-up pass of all 22 bodies, one at a time); "
        "median over passes or spawns",
        "start",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", 0.15,
        "peak RSS of the working process: the batch worker, or the server's "
        "VmHWM",
    ),
    EndToEnd(
        "query_p50_ms", "ms", 0.25,
        "median query latency: batch, one answer call on the exchanged "
        "engine; serve-rw, one request from its scheduled send time",
        "load",
    ),
    EndToEnd(
        "update_p50_ms", "ms", 0.25,
        "median update latency: batch, one UpdateSession.apply retracting or "
        "re-inserting a suspect fact; serve-rw, one /update of the burst "
        "sent one at a time after the open loop",
        "load",
    ),
)


#: Reported in every run's report but not a BENCHMARK.json metric: how
#: many reads a write's cache invalidation forces to re-solve differs ~2x
#: between serve-rw instances, so its spread over ten seeds (~0.5) is
#: wider than any allowed bound.
REPORT_ONLY = (
    EndToEnd(
        "query_p95_ms", "ms", 0.25,
        "95th percentile (nearest rank) of the query latencies: the highest "
        "with ten samples beyond it in a serve-rw run",
        "load",
    ),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    moves: str
    better: str = "lower"


def _layer(name: str, unit: str, moves: str) -> PerLayer:
    # Counts of useful outcomes and hit ratios are better higher; times,
    # waits, work counts and failures lower.
    higher = unit == "ratio" and name != "trace.overhead_ratio"
    return PerLayer(name, unit, moves, "higher" if higher else "lower")


_TPCH_READY = "ready_s on tpch-sf1"
_EXCHANGE = "ready_s/pipeline_s on tpch-sf1; ready_s on serve-rw"
_SERVE = "query_p50_ms/query_p95_ms/update_p50_ms on serve-rw"
_SOLVE = "query_p95_ms on serve-rw (post-update re-solves); little on tpch-sf1"

PER_LAYER = (
    _layer("parser.parse_s", "s", _TPCH_READY),
    _layer("reduction.reduce_s", "s", "setup_s (all)"),
    _layer("exchange.chase_s", "s", _EXCHANGE),
    _layer("exchange.groundings_s", "s", _EXCHANGE),
    _layer("exchange.violations_s", "s", _EXCHANGE),
    _layer("exchange.index_s", "s", _EXCHANGE),
    _layer("exchange.total_s", "s", _EXCHANGE),
    _layer("exchange.chased_facts", "count", _EXCHANGE),
    _layer("exchange.groundings", "count", _EXCHANGE),
    _layer("exchange.violations", "count", _EXCHANGE),
    _layer("envelope.analyze_s", "s", _TPCH_READY),
    _layer("envelope.clusters", "count", _TPCH_READY),
    _layer("envelope.suspect_source_facts", "count", _TPCH_READY),
    _layer("queries.ground_s", "s", "query_p50_ms on serve-rw"),
    _layer("queries.candidates", "count", "query_p50_ms on serve-rw"),
    _layer("queries.safe_ratio", "ratio", "query_p50_ms on serve-rw"),
    _layer("program.build_s", "s", "pipeline_s on tpch-sf1; query_p95_ms on serve-rw"),
    _layer("program.signatures", "count", "pipeline_s on tpch-sf1"),
    _layer("program.families", "count", "pipeline_s on tpch-sf1"),
    _layer("program.rules", "count", "pipeline_s on tpch-sf1; query_p95_ms on serve-rw"),
    _layer("asp.solve_s", "s", _SOLVE),
    _layer("asp.programs_solved", "count", _SOLVE),
    _layer("asp.family_candidates", "count", _SOLVE),
    _layer("asp.core_skips", "count", _SOLVE),
    _layer("asp.conflicts", "count", _SOLVE),
    _layer("segmentary.self_s", "s", "pipeline_s on tpch-sf1 (grouping and signatures per candidate)"),
    _layer("cache.probe_s", "s", "pipeline_s on tpch-sf1; query_p50_ms on serve-rw"),
    _layer("cache.program_hit_ratio", "ratio", "query_p50_ms/query_p95_ms on serve-rw"),
    _layer("cache.decision_hit_ratio", "ratio", "query_p50_ms/query_p95_ms on serve-rw; pipeline_s on tpch-sf1"),
    _layer("cache.invalidated", "count", "query_p95_ms on serve-rw"),
    _layer("cache.evictions", "count", "query_p95_ms on serve-rw"),
    _layer("incremental.apply_s", "s", "update_p50_ms and query_p95_ms on serve-rw"),
    _layer("incremental.clusters_touched", "count", "update_p50_ms on serve-rw"),
    _layer("incremental.cache_invalidated", "count", "query_p95_ms on serve-rw"),
    _layer("serve.admission_wait_s", "s", _SERVE),
    _layer("serve.rwlock_wait_s", "s", _SERVE),
    _layer("serve.service_s", "s", _SERVE),
    _layer("serve.serialize_s", "s", _SERVE),
    _layer("serve.transport_s", "s", _SERVE),
    _layer("serve.rejected", "count", _SERVE),
    _layer("serve.generator_lag_ms", "ms", _SERVE),
    _layer("trace.e2e_s", "s", "the traced end-to-end time the layer self times add up to"),
    _layer("trace.unattributed_s", "s", "nothing: time no layer claims, kept under 5% of trace.e2e_s"),
    _layer("trace.overhead_ratio", "ratio", "nothing: traced over untraced time, the cost of measuring"),
)


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
