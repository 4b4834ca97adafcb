"""Table 1: source database shapes (relations, attributes, tuples).

The paper reports, per source database, the number of relations, total
attributes, and total tuples.  We regenerate the same table for our largest
synthetic instance (absolute tuple counts are scaled; the relational shape
is identical — see EXPERIMENTS.md).
"""

from benchmarks.harness import format_table
from repro.genomics.schema import source_schema

GROUPS = {
    "UCSC": ["ComputedAlignments", "ComputedCrossref"],
    "RefSeq": [
        "RefSeqTranscript", "RefSeqSource", "RefSeqReference",
        "RefSeqGene", "RefSeqProtein",
    ],
    "EntrezGene": ["EntrezGene"],
    "UniProt": ["UniProt"],
}

#: Paper's Table 1 for reference (tuples are the real databases').
PAPER_ROWS = {
    "UCSC": (2, 13, 165_920),
    "RefSeq": (5, 38, 706_923),
    "EntrezGene": (1, 3, 431_114),
    "UniProt": (1, 3, 4_405_573),
}


def test_table1_source_instances(ctx, report, benchmark):
    schema = source_schema()

    def build():
        return ctx.instance("F3")

    generated = benchmark.pedantic(build, rounds=1, iterations=1)
    counts = generated.tuples_per_relation()

    rows = []
    for database, relations in GROUPS.items():
        attributes = sum(schema.arity(name) for name in relations)
        tuples = sum(counts.get(name, 0) for name in relations)
        paper_relations, paper_attributes, paper_tuples = PAPER_ROWS[database]
        rows.append(
            [
                database, len(relations), attributes, tuples,
                paper_relations, paper_attributes, paper_tuples,
            ]
        )
        # The schema shape must match the paper exactly.
        assert len(relations) == paper_relations
        assert attributes == paper_attributes

    report.emit(
        format_table(
            [
                "database", "relations", "attributes", "tuples(F3)",
                "paper_rel", "paper_attr", "paper_tuples",
            ],
            rows,
            title="Table 1 — Source instances (ours vs paper)",
        )
    )
