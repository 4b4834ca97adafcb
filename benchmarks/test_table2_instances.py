"""Table 2: test-instance profiles.

For every profile the paper reports source tuples, total tuples (source +
exchanged target), the suspect-transcript rate, and the suspect-tuple rate
(source and target).  We regenerate the same rows from our scaled profiles.
"""

import pytest

from benchmarks.harness import format_table
from repro.genomics.instances import SIZE_SWEEP, SUSPECT_SWEEP


def _row(ctx, profile: str) -> list:
    generated = ctx.instance(profile)
    engine = ctx.segmentary_engine(profile)
    stats = engine.exchange_stats
    analysis = engine.analysis
    total = stats.chased_facts
    suspect_target = sum(
        len(cluster.influence_ids) for cluster in analysis.clusters
    )
    suspect_tuples = len(analysis.suspect_source) + suspect_target
    transcripts = len(generated.transcripts)
    suspect_rate = (
        len(generated.conflicted_transcripts) / transcripts if transcripts else 0.0
    )
    return [
        profile,
        stats.source_facts,
        total,
        f"{100 * suspect_rate:.1f}%",
        f"{100 * suspect_tuples / total:.1f}%" if total else "0%",
    ]


@pytest.mark.parametrize("sweep_name,profiles", [
    ("suspect-rate sweep", SUSPECT_SWEEP),
    ("size sweep", SIZE_SWEEP),
])
def test_table2_profiles(ctx, report, benchmark, sweep_name, profiles):
    def build_all():
        return [_row(ctx, profile) for profile in profiles]

    rows = benchmark.pedantic(build_all, rounds=1, iterations=1)
    report.emit(
        format_table(
            [
                "instance", "source tuples", "total tuples",
                "suspect transcripts", "suspect tuples*",
            ],
            rows,
            title=f"Table 2 — Test instances ({sweep_name}); "
            "*includes source and target",
        )
    )
    # Shape assertions mirroring the paper's table:
    if sweep_name == "size sweep":
        source_counts = [row[1] for row in rows]
        assert source_counts == sorted(source_counts)
    else:
        rates = [float(row[3].rstrip("%")) for row in rows]
        assert rates == sorted(rates)
