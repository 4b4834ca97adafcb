"""Table 3: the query suite with approximate answer counts.

The paper lists the eleven queries with their approximate answer counts on
the large instances.  We run the full suite on L3 (segmentary engine) and
report the counts; Boolean queries must answer true, and the counts must
respect the structural relationships between the queries (ep3 ≥ ep2,
xr6 ≥ xr5, projection-free xr3 ≤ xr2, ...).
"""

from benchmarks.harness import format_table, run_query_suite
from repro.genomics.queries import QUERY_SUITE


def test_table3_query_suite(ctx, report, benchmark):
    engine = ctx.segmentary_engine("L3")

    def run():
        return run_query_suite(engine, list(QUERY_SUITE))

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    counts = {r.query: r.answers for r in results}

    rows = [[r.query, r.answers, f"{r.seconds:.3f}s"] for r in results]
    report.emit(
        format_table(
            ["query", "answers (L3)", "query-phase time"],
            rows,
            title="Table 3 — Query suite on L3 (segmentary)",
        )
    )

    # Boolean queries are true on non-empty data.
    assert counts["ep1"] == 1
    assert counts["xr1"] == 1
    assert counts["xr4"] == 1
    # Structural relations between the queries' answer sets.
    assert counts["ep3"] >= counts["ep2"] > 0
    assert counts["ep16"] >= counts["ep15"] > 0
    assert counts["xr2"] > 0
    assert counts["xr3"] <= counts["xr2"]  # full rows certain ⊆ ids certain
    assert counts["xr6"] >= counts["xr5"] > 0
