"""Warm-engine repeated queries: the cross-query cache at work.

The runtime subsystem's acceptance check: a warm segmentary engine
answering the same query twice must hit the signature-program cache on the
second pass (``cache_hits > 0``, no programs solved) and spend strictly
less query-phase wall-clock time than the cold pass.  A renamed query with
the same structure exercises the coarser decision memo instead.

Uses a fresh engine (not ``ctx``'s warm ones), because those may already
be cache-warm from other benchmarks in the same session.
"""

from benchmarks.harness import format_table
from repro.genomics.queries import QUERY_SUITE, query_by_name
from repro.xr.segmentary import SegmentaryEngine

PROFILE = "S3"


def test_warm_cache_repeated_queries(ctx, report, benchmark):
    reduced = ctx.reduced_mapping()
    instance = ctx.instance(PROFILE).instance

    def run():
        engine = SegmentaryEngine(reduced, instance)
        engine.exchange()
        rows = []
        for name in QUERY_SUITE:
            query = query_by_name(name)
            _, cold = engine.answer_with_stats(query)
            _, warm = engine.answer_with_stats(query)
            rows.append((name, cold, warm))
        engine.close()
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    report.emit(f"Warm-engine repeated queries on {PROFILE} (program cache)")
    report.emit(
        format_table(
            ["query", "cold s", "warm s", "cold solved", "warm hits"],
            [
                [
                    name,
                    f"{cold.seconds:.4f}",
                    f"{warm.seconds:.4f}",
                    cold.programs_solved,
                    warm.cache_hits,
                ]
                for name, cold, warm in rows
            ],
        )
    )

    solved_any = False
    for name, cold, warm in rows:
        if cold.programs_solved == 0:
            continue  # nothing to cache: every candidate was safe
        solved_any = True
        assert warm.cache_hits > 0, name
        assert warm.programs_solved == 0, name
        assert warm.seconds < cold.seconds, name
    assert solved_any, "profile produced no suspect candidates to cache"
