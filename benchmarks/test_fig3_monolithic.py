"""Figure 3: monolithic query answering performance.

Left plot: query duration vs. suspect-tuple percentage (L0, L3, L9, L20).
Right plot: query duration vs. instance size (S3, M3, L3, F3), log-log.

The monolithic engine pays the full exchange inside every query, so its
times are large everywhere and grow steeply with instance size — the
paper's core negative finding, which we reproduce in shape.

Pure-Python scaling note: the paper runs all eleven queries; our monolithic
sweeps use a five-query subset (and two queries on F3) so the whole suite
stays within a benchmark session.  The subset spans the query shapes:
Boolean (xr1), unary projection (xr2), join + projection (ep2), and the
self-join xr6.  EXPERIMENTS.md discusses the subset.
"""

import time

import pytest

from benchmarks.harness import format_series, format_table
from repro.genomics.instances import SUSPECT_SWEEP
from repro.genomics.queries import query_by_name

MONO_QUERIES = ["xr1", "xr2", "ep1", "ep2", "xr6"]
MONO_QUERIES_FULL_SIZE = ["xr1", "ep2"]  # F3 subset


def _time_queries(ctx, profile, queries):
    timings = {}
    for name in queries:
        engine = ctx.monolithic_engine(profile)
        started = time.perf_counter()
        engine.answer(query_by_name(name))
        timings[name] = time.perf_counter() - started
    return timings


def test_fig3_duration_vs_suspect_rate(ctx, report, benchmark):
    def run():
        return {
            profile: _time_queries(ctx, profile, MONO_QUERIES)
            for profile in SUSPECT_SWEEP
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rates = {"L0": 0, "L3": 3, "L9": 9, "L20": 20}
    report.emit("Figure 3 (left) — Monolithic: query duration vs suspect %")
    for query in MONO_QUERIES:
        report.emit(
            format_series(
                query,
                [(rates[p], results[p][query]) for p in SUSPECT_SWEEP],
            )
        )
    # Shape: durations stay within one order of magnitude across rates
    # (the exchange dominates, not the violations).
    for query in MONO_QUERIES:
        times = [results[p][query] for p in SUSPECT_SWEEP]
        assert max(times) < 20 * min(times)


def test_fig3_duration_vs_instance_size(ctx, report, benchmark):
    def run():
        results = {
            "S3": _time_queries(ctx, "S3", MONO_QUERIES),
            "M3": _time_queries(ctx, "M3", MONO_QUERIES),
            "L3": _time_queries(ctx, "L3", MONO_QUERIES),
            "F3": _time_queries(ctx, "F3", MONO_QUERIES_FULL_SIZE),
        }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    sizes = {
        profile: ctx.segmentary_engine(profile).exchange_stats.chased_facts
        for profile in ("S3", "M3", "L3", "F3")
    }
    report.emit("Figure 3 (right) — Monolithic: query duration vs instance size")
    for query in MONO_QUERIES:
        points = [
            (sizes[p], results[p][query])
            for p in ("S3", "M3", "L3", "F3")
            if query in results[p]
        ]
        report.emit(format_series(query, points))
    rows = [
        [p, sizes[p]] + [f"{results[p].get(q, float('nan')):.2f}" for q in MONO_QUERIES]
        for p in ("S3", "M3", "L3", "F3")
    ]
    report.emit(
        format_table(["profile", "tuples"] + MONO_QUERIES, rows,
                     title="Monolithic per-query seconds")
    )
    # Shape: steep growth with size — the paper's headline negative result.
    for query in MONO_QUERIES_FULL_SIZE:
        assert results["F3"][query] > 10 * results["S3"][query]
    for query in MONO_QUERIES:
        assert results["L3"][query] > results["S3"][query]
