"""Raw run results → report metrics, digest checks and layer accounting.

End-to-end times are scaled to the reference host speed; per-layer
values are raw.  Batch per-layer values are per traced pass (median over
traced passes); serve-rw ones are totals over the traced open-loop window, except the
set-up layers (reduction, exchange, envelope), which come from the traced
server's start-up.  A layer that does not run on a workload reports 0
with ``n = 0``.
"""

from __future__ import annotations

from perfbench.report import Report, quartiles

MS = 1000.0
#: Layer self times must add up to within this share of the traced
#: end-to-end time.
ACCOUNTING_TOLERANCE = 0.05

# Self-time layers of the tracer → per-layer metric names.
_SELF_METRICS = {
    "parser": "parser.parse_s",
    "exchange": "exchange.total_s",
    "envelope": "envelope.analyze_s",
    "queries": "queries.ground_s",
    "program": "program.build_s",
    "asp": "asp.solve_s",
    "segmentary": "segmentary.self_s",
    "cache": "cache.probe_s",
    "incremental": "incremental.apply_s",
}
_COUNTERS = (
    "exchange.chase_s", "exchange.groundings_s", "exchange.violations_s",
    "exchange.index_s", "exchange.chased_facts", "exchange.groundings",
    "exchange.violations", "envelope.clusters", "envelope.suspect_source_facts",
    "queries.candidates", "program.signatures", "program.families",
    "program.rules", "asp.programs_solved", "asp.family_candidates",
    "asp.core_skips", "asp.conflicts", "incremental.clusters_touched",
    "incremental.cache_invalidated",
)
_SETUP_SIDE = {"reduction", "exchange", "envelope"}
_SERVE_METRICS = (
    "serve.admission_wait_s", "serve.rwlock_wait_s", "serve.service_s",
    "serve.serialize_s", "serve.transport_s", "serve.rejected",
    "serve.generator_lag_ms",
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    return "count"


def _end_to_end(report: Report, scale: dict, setup, ready, pipeline, rss,
                queries, updates):
    """End-to-end metrics; every time is multiplied by the host-speed
    factor of its phase, ``scale[phase]`` (:mod:`perfbench.hostspeed`)."""
    report.samples("setup_s", "s", [s * scale["setup"] for s in setup])
    report.samples("ready_s", "s", [r * scale["start"] for r in ready])
    report.samples("pipeline_s", "s", [p * scale["start"] for p in pipeline])
    report.samples("peak_rss_mb", "MB", rss)
    ms = MS * scale["load"]
    report.samples("query_p50_ms", "ms", [q * ms for q in queries])
    report.quantile("query_p95_ms", "ms", [q * ms for q in queries], 0.95)
    report.samples("update_p50_ms", "ms", [u * ms for u in updates])


def _accounting(report: Report, e2e: float, attributed: float) -> None:
    unattributed = e2e - attributed
    share = unattributed / e2e if e2e else None
    report.accounting = {
        "e2e_s": e2e,
        "attributed_s": attributed,
        "unattributed_s": unattributed,
        "unattributed_share": share,
        "tolerance": ACCOUNTING_TOLERANCE,
        "ok": share is not None and abs(share) <= ACCOUNTING_TOLERANCE,
    }


# ---------------------------------------------------------------- batch


def batch(arguments, setup, passes, expected, scale):
    report = Report(arguments.workload, arguments.seed)
    attempted = failed = 0
    for run_pass in passes:
        attempted += len(run_pass["digests"]) + len(run_pass["update_s"])
        failed += sum(
            digest != expected[key] for key, digest in run_pass["digests"].items()
        )
    plain = [p for p in passes if not p["traced"]]
    _end_to_end(
        report, scale, setup,
        [p["ready_s"] for p in plain],
        [p["pipeline_s"] for p in plain],
        [p["peak_rss_mb"] for p in plain],
        [q for p in plain for q in p["query_s"]],
        [u for p in plain for u in p["update_s"]],
    )
    report.ratio("failed_ratio", [failed], [attempted])
    if arguments.trace:
        _batch_layers(report, passes)
    return report, failed == 0, attempted, failed


def _batch_layers(report: Report, passes) -> None:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    for layer, name in _SELF_METRICS.items():
        report.samples(name, "s", [p["layers"]["self_s"].get(layer, 0.0) for p in traced])
    for name in _COUNTERS:
        report.samples(name, _unit(name), [p["layers"]["counters"].get(name, 0) for p in traced])
    report.samples(
        "reduction.reduce_s", "s",
        [p["setup_layers"]["self_s"].get("reduction", 0.0) for p in traced],
    )
    report.ratio(
        "queries.safe_ratio",
        [p["layers"]["counters"].get("queries.safe_candidates", 0) for p in traced],
        [p["layers"]["counters"].get("queries.candidates", 0) for p in traced],
    )
    _cache_metrics(report, [p["cache"] for p in traced])
    for name in _SERVE_METRICS:
        report.samples(name, _unit(name), [])
    e2e = [p["e2e_s"] for p in traced]
    report.samples("trace.e2e_s", "s", e2e)
    unattributed = [p["layers"]["self_s"].get("bench", 0.0) for p in traced]
    report.samples("trace.unattributed_s", "s", unattributed)
    # The first traced pass reran the untraced pass's hash seed.
    _overhead(report, [traced[0]["pipeline_s"]], [plain[0]["pipeline_s"]])
    _accounting(report, sum(e2e), sum(e2e) - sum(unattributed))


def _overhead(report: Report, traced: list[float], untraced: list[float]) -> None:
    """Median traced over median untraced time, with the untraced base."""
    entry = report.ratio(
        "trace.overhead_ratio", [quartiles(traced)[1]], [quartiles(untraced)[1]]
    )
    entry["n"] = len(traced)
    entry["base_n"] = len(untraced)


def _cache_metrics(report: Report, stats: list[dict]) -> None:
    report.ratio(
        "cache.program_hit_ratio",
        [s["program_hits"] for s in stats],
        [s["program_hits"] + s["program_misses"] for s in stats],
    )
    report.ratio(
        "cache.decision_hit_ratio",
        [s["decision_hits"] for s in stats],
        [s["decision_hits"] + s["decision_misses"] for s in stats],
    )
    report.samples("cache.invalidated", "count", [s["invalidated"] for s in stats])
    report.samples(
        "cache.evictions", "count",
        [s["program_evictions"] + s["decision_evictions"] for s in stats],
    )


# ------------------------------------------------------------- serve-rw


def serve(arguments, setup, phases, scale):
    report = Report(arguments.workload, arguments.seed)
    attempted = failed = 0
    for phase in phases:
        attempted += (
            phase["warmup"]["attempted"] + len(phase["ops"]) + len(phase["burst"])
        )
        failed += (
            phase["warmup"]["failed"] + sum(not op["ok"] for op in phase["ops"])
            + sum(op["status"] != 200 for op in phase["burst"])
        )
    plain = phases[0]
    queries = [op for op in plain["ops"] if op["kind"] == "query" and op["ok"]]
    updates = [op for op in plain["burst"] if op["status"] == 200]
    _end_to_end(
        report, scale, setup, plain["ready_s"], plain["pipeline_s"],
        [plain["peak_rss_mb"]],
        [op["received"] - op["scheduled"] for op in queries],
        [op["received"] - op["sent"] for op in updates],
    )
    report.ratio("failed_ratio", [failed], [attempted])
    report.samples("mismatched", "count", [sum(
        p["warmup"]["mismatched"] + sum(op.get("mismatch", False) for op in p["ops"])
        for p in phases
    )])
    if arguments.trace:
        _serve_layers(report, plain, phases[1])
    return report, failed == 0, attempted, failed


def _serve_layers(report: Report, plain: dict, traced: dict) -> None:
    startup = traced["totals"]["startup"]
    final = traced["totals"]["final"]
    load = {
        part: {k: v - startup[part].get(k, 0) for k, v in final[part].items()}
        for part in final
    }
    for layer, name in _SELF_METRICS.items():
        source = startup if layer in _SETUP_SIDE else load
        report.samples(name, "s", [source["self_s"].get(layer, 0.0)])
    for name in _COUNTERS:
        source = startup if name.split(".")[0] in _SETUP_SIDE else load
        report.samples(name, _unit(name), [source["counters"].get(name, 0)])
    report.samples("reduction.reduce_s", "s", [startup["self_s"].get("reduction", 0.0)])
    report.ratio(
        "queries.safe_ratio",
        [load["counters"].get("queries.safe_candidates", 0)],
        [load["counters"].get("queries.candidates", 0)],
    )
    metrics = traced["server_metrics"]
    hits = metrics.get("cache_program_hits_total", 0)
    misses = metrics.get("cache_program_misses_total", 0)
    memo_hits = metrics.get("cache_memo_hits_total", 0)
    memo_misses = metrics.get("cache_memo_misses_total", 0)
    report.ratio("cache.program_hit_ratio", [hits], [hits + misses])
    report.ratio("cache.decision_hit_ratio", [memo_hits], [memo_hits + memo_misses])
    report.samples(
        "cache.invalidated", "count",
        [load["counters"].get("incremental.cache_invalidated", 0)],
    )
    report.samples("cache.evictions", "count", [sum(
        value for key, value in metrics.items() if "evict" in key
    )])

    ops = [op for op in traced["ops"] + traced["burst"] if op["status"] is not None]
    client = sum(op["received"] - op["sent"] for op in ops)
    self_s = load["self_s"]
    handler = sum(self_s.values())
    report.samples("serve.admission_wait_s", "s", [self_s.get("serve.admission_wait", 0.0)])
    report.samples("serve.rwlock_wait_s", "s", [self_s.get("serve.rwlock_wait", 0.0)])
    # Request parsing happens in the HTTP handler, outside the service.
    engine_layers = sum(
        self_s.get(layer, 0.0) for layer in _SELF_METRICS if layer != "parser"
    )
    report.samples("serve.service_s", "s", [self_s.get("serve.service", 0.0) + engine_layers])
    report.samples("serve.serialize_s", "s", [self_s.get("serve.serialize", 0.0)])
    transport = client - handler + self_s.get("serve.write", 0.0)
    report.samples("serve.transport_s", "s", [transport])
    report.samples("serve.rejected", "count", [sum(op["status"] == 429 for op in ops)])
    report.samples(
        "serve.generator_lag_ms", "ms",
        [(op["sent"] - op["scheduled"]) * MS for op in traced["ops"] if op],
    )
    unattributed = self_s.get("serve.http", 0.0)
    report.samples("trace.e2e_s", "s", [client])
    report.samples("trace.unattributed_s", "s", [unattributed])
    p50 = [op["received"] - op["scheduled"] for op in traced["ops"]
           if op["kind"] == "query" and op["ok"]]
    p50_plain = [op["received"] - op["scheduled"] for op in plain["ops"]
                 if op["kind"] == "query" and op["ok"]]
    _overhead(report, p50, p50_plain)
    _accounting(report, client, client - unattributed)
