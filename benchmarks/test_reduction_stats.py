"""Section 5.2: the GLAV-to-GAV reduction's time and size blow-up.

The paper: "These transformations take an average of 18.7 seconds combined,
and the resulting schema mapping is approximately seven times larger than
the original (from 33 tgds and 26 egds to 339 tgds and 67 egds)."

Our reduction uses skolem values + explicit equality instead of annotated
relation copies (DESIGN.md §6), so the blow-up profile differs; this bench
records ours next to the paper's.
"""

from benchmarks.harness import format_table
from repro.genomics.queries import query_by_name
from repro.genomics.schema import genome_mapping
from repro.reduction import reduce_mapping


def test_reduction_size_and_time(report, benchmark):
    mapping = genome_mapping()

    reduced = benchmark(lambda: reduce_mapping(mapping))
    stats = reduced.stats()
    rows = [
        ["tgds", stats["tgds_before"], stats["tgds_after"], "33 → 339"],
        ["egds", stats["egds_before"], stats["egds_after"], "26 → 67"],
        ["skolem functions", "-", stats["skolem_functions"], "-"],
        ["nullable positions", "-", stats["nullable_positions"], "-"],
    ]
    report.emit(
        format_table(
            ["kind", "before", "after", "paper"],
            rows,
            title="§5.2 — GLAV→GAV reduction blow-up (ours vs paper)",
        )
    )
    assert reduced.gav.is_gav_gav_egd()
    # A modest increase, like the paper's: same order of magnitude.
    assert stats["tgds_after"] <= 30 * max(stats["tgds_before"], 1)


def test_query_rewriting(report, benchmark):
    reduced = reduce_mapping(genome_mapping())
    queries = [query_by_name(name) for name in ("ep2", "xr3", "xr6")]

    def rewrite_all():
        return [reduced.rewrite(query) for query in queries]

    rewritten = benchmark(rewrite_all)
    rows = [
        [
            query.name,
            len(query.body),
            len(ucq.disjuncts[0].body),
        ]
        for query, ucq in zip(queries, rewritten)
    ]
    report.emit(
        format_table(
            ["query", "atoms before", "atoms after"],
            rows,
            title="Query rewriting growth",
        )
    )
