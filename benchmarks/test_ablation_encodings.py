"""Ablation benches for the design choices DESIGN.md calls out.

1. Program encodings: the default repair-guess encoding vs the literal
   Figure 1 encoding (where both are correct — single-level conflicts).
2. Head-cycle-free shifting in the stable-model engine: shifting the
   disjunctive guesses to normal rules enables the linear-time
   least-model-of-reduct check.
3. The segmentary restriction itself: per-signature programs vs one program
   for the whole suspect region.
"""

import time

from repro.asp.stable import StableModelEngine
from repro.bench.reporting import format_table
from repro.genomics.queries import query_by_name
from repro.xr.monolithic import MonolithicEngine
from repro.xr.program import build_repair_program
from repro.xr.exchange import build_exchange_data


def test_ablation_repair_vs_figure1(ctx, report, benchmark):
    instance = ctx.instance("S3").instance
    reduced = ctx.reduced_mapping()
    query = query_by_name("xr2")

    def run():
        timings = {}
        for encoding in ("repair", "figure1"):
            engine = MonolithicEngine(reduced, instance, encoding=encoding)
            started = time.perf_counter()
            answers = engine.answer(query)
            timings[encoding] = (time.perf_counter() - started, len(answers),
                                 engine.last_stats.rules)
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [encoding, f"{seconds:.2f}", answers, rules]
        for encoding, (seconds, answers, rules) in timings.items()
    ]
    report.emit(
        format_table(
            ["encoding", "seconds", "answers", "ground rules"],
            rows,
            title="Ablation — repair-guess vs literal Figure 1 (S3, xr2)",
        )
    )
    # The literal Figure 1 encoding misses repairs with cascaded incidental
    # deletions (DESIGN.md §6), i.e. it may admit *fewer* stable models and
    # hence report a superset of the certain answers.
    assert timings["figure1"][1] >= timings["repair"][1]


def test_ablation_hcf_shifting(ctx, report, benchmark):
    """Solving the same program with and without disjunction shifting."""
    reduced = ctx.reduced_mapping()
    instance = ctx.instance("S3").instance
    data = build_exchange_data(reduced.gav, instance)
    xr_program = build_repair_program(data)

    def run():
        timings = {}
        for label, auto_shift in (("shifted", True), ("disjunctive", False)):
            started = time.perf_counter()
            engine = StableModelEngine(xr_program.program, auto_shift=auto_shift)
            models = sum(1 for _ in engine.stable_models(limit=8))
            timings[label] = (time.perf_counter() - started, models)
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [label, f"{seconds:.3f}", models]
        for label, (seconds, models) in timings.items()
    ]
    report.emit(
        format_table(
            ["engine path", "seconds (8 models)", "models"],
            rows,
            title="Ablation — HCF shifting in the stable-model engine (S3)",
        )
    )
    assert timings["shifted"][1] == timings["disjunctive"][1]


def test_ablation_segmentation_granularity(ctx, report, benchmark):
    """Per-signature programs vs one merged program over all clusters."""
    from repro.xr.queries import ground_query

    engine = ctx.segmentary_engine("L9")
    reduced = ctx.reduced_mapping()
    data = engine.data
    analysis = engine.analysis
    query = query_by_name("xr2")

    def run():
        # Per-signature (the engine's own path).
        started = time.perf_counter()
        answers_split = engine.answer(query)
        split_seconds = time.perf_counter() - started

        # Merged: one program containing every cluster.
        started = time.perf_counter()
        safe = set(analysis.safe_chased)
        focus = set()
        violations = []
        for cluster in analysis.clusters:
            focus |= cluster.influence
            violations.extend(cluster.violations)
        focus -= safe
        rewritten = reduced.rewrite(query)
        groundings = ground_query(rewritten, data)
        from repro.asp.reasoning import cautious_consequences
        from repro.xr.program import build_repair_program
        from repro.xr.queries import answers_from_facts

        xr_program = build_repair_program(
            data, query_groundings=groundings, focus=focus, safe=safe,
            violations=violations,
        )
        cautious = cautious_consequences(
            xr_program.program, xr_program.query_atoms.values()
        )
        accepted = {
            fact
            for fact, atom_id in xr_program.query_atoms.items()
            if cautious is not None and atom_id in cautious
        }
        accepted |= xr_program.trivially_certain
        answers_merged = answers_from_facts(accepted)
        merged_seconds = time.perf_counter() - started
        return answers_split, split_seconds, answers_merged, merged_seconds

    answers_split, split_seconds, answers_merged, merged_seconds = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    assert answers_split == answers_merged
    report.emit(
        format_table(
            ["strategy", "seconds"],
            [
                ["per-signature programs", f"{split_seconds:.3f}"],
                ["single merged program", f"{merged_seconds:.3f}"],
            ],
            title="Ablation — segmentation granularity (L9, xr2)",
        )
    )
