"""A/B benchmark: per-signature vs incremental-family solve strategies.

``python -m repro bench --ab solve`` runs both solve strategies of
:class:`~repro.xr.segmentary.SegmentaryEngine` over the M/L genomics
grid under identical conditions — same exchange artifacts, same query
subset, same budgets — and reports per-scenario and aggregate solve-phase
speedups.  The per-signature strategy is the *reference implementation*:
simple, per-group engines with no clause reuse, kept as the ground truth
the differential fuzzer checks the incremental path against.  The
incremental strategy merges each cluster family onto one
:class:`~repro.asp.stable.StableModelEngine` (compact generator
encoding, selector-guarded steering, learned-clause carryover).

Method notes (EXPERIMENTS.md has the full write-up):

- The exchange phase runs **once** per scenario and both strategies are
  seeded with the same artifacts, so only the query phase differs.
- Answers are compared for equality on every run; a mismatch raises —
  a speedup over wrong answers is not a speedup.
- Per-strategy numbers are the **best of** ``repeats`` runs, not the
  median: the quantity of interest is the cost of the work itself, and
  the minimum is the standard robust estimator for that under one-sided
  scheduler noise.  The aggregate is Σ per-signature solve seconds over
  Σ incremental solve seconds across the scenario's query subset.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.bench.micro import parse_scenario_name
from repro.bench.reporting import format_speedup, format_table, speedup
from repro.genomics.instances import build_instance
from repro.genomics.queries import query_by_name
from repro.genomics.schema import genome_mapping
from repro.reduction.reduce import ReducedMapping, reduce_mapping
from repro.xr.envelope import analyze_envelopes
from repro.xr.exchange import build_exchange_data
from repro.xr.segmentary import SegmentaryEngine

#: Default scenario grid for the solve A/B: the M/L sizes at the paper's
#: ≥10 % suspect rates, where solving dominates query latency and the
#: acceptance criteria live.  (S scenarios and rate-0 scenarios solve in
#: microseconds; their A/B ratio is timer noise.)
AB_SCENARIOS: tuple[str, ...] = ("M10", "M20", "L10", "L20")

#: Query subset: the signature-heavy pair of the micro grid.  ``xr4``
#: is omitted because it grounds to zero signatures on the genomics
#: schema — both strategies solve nothing.
AB_QUERIES: tuple[str, ...] = ("ep2", "xr2")

STRATEGIES: tuple[str, ...] = ("per-signature", "incremental")


def _measure_strategy(
    reduced: ReducedMapping,
    instance,
    data,
    analysis,
    strategy: str,
    queries: tuple[str, ...],
) -> tuple[dict[str, float], dict[str, frozenset]]:
    """One cold run of every query under ``strategy``.

    Returns per-stage seconds and the answer sets (for cross-strategy
    equality checking).  A fresh engine per query keeps runs cold: no
    cache, no warm solver state crossing query boundaries.
    """
    seconds = {"solve": 0.0, "build": 0.0, "total": 0.0}
    answers: dict[str, frozenset] = {}
    for name in queries:
        with SegmentaryEngine(
            reduced, instance, cache=False, solve_strategy=strategy
        ) as engine:
            engine.data = data
            engine.analysis = analysis
            result, stats = engine.answer_with_stats(query_by_name(name))
        seconds["solve"] += stats.solve_seconds
        seconds["build"] += stats.build_seconds
        seconds["total"] += stats.seconds
        answers[name] = result
    return seconds, answers


def run_solve_ab(
    scenarios: list[str] | None = None,
    repeats: int = 3,
    queries: tuple[str, ...] = AB_QUERIES,
    log: Callable[[str], None] | None = None,
) -> dict:
    """Run the solve-strategy A/B and return the artifact payload.

    Per scenario the payload records, for each strategy, the best-of-
    ``repeats`` solve/build/total seconds, plus the solve-phase speedup
    (per-signature / incremental, >1 = incremental faster) and the answer
    sizes.  ``answers_identical`` is asserted per run and recorded.
    """
    if scenarios is None:
        scenarios = list(AB_SCENARIOS)
    reduced = reduce_mapping(genome_mapping())
    results: dict[str, dict] = {}
    agg = {name: 0.0 for name in STRATEGIES}
    for scenario in scenarios:
        started = time.perf_counter()
        profile = parse_scenario_name(scenario)
        instance = build_instance(profile).instance
        data = build_exchange_data(reduced.gav, instance)
        analysis = analyze_envelopes(data)

        best: dict[str, dict[str, float]] = {}
        reference_answers = None
        for _ in range(max(1, repeats)):
            for strategy in STRATEGIES:
                seconds, answers = _measure_strategy(
                    reduced, instance, data, analysis, strategy, queries
                )
                if reference_answers is None:
                    reference_answers = answers
                elif answers != reference_answers:
                    raise AssertionError(
                        f"answer mismatch on {scenario} under {strategy}: "
                        f"{ {q: len(a) for q, a in answers.items()} } vs "
                        f"{ {q: len(a) for q, a in reference_answers.items()} }"
                    )
                slot = best.setdefault(strategy, dict(seconds))
                for key, value in seconds.items():
                    slot[key] = min(slot[key], value)
        assert reference_answers is not None
        for strategy in STRATEGIES:
            agg[strategy] += best[strategy]["solve"]
        incremental_solve = best["incremental"]["solve"]
        solve_speedup = speedup(
            best["per-signature"]["solve"], incremental_solve
        )
        results[scenario] = {
            "profile": {
                "name": scenario,
                "transcripts": profile.transcripts,
                "suspect_rate": profile.suspect_fraction,
            },
            "strategies": {name: best[name] for name in STRATEGIES},
            "solve_speedup": solve_speedup,
            "answers": {q: len(a) for q, a in reference_answers.items()},
            "answers_identical": True,
        }
        if log is not None:
            log(
                f"{scenario:>4}: per-signature "
                f"{best['per-signature']['solve']:.3f}s  incremental "
                f"{incremental_solve:.3f}s  speedup "
                f"{format_speedup(solve_speedup)}  "
                f"({time.perf_counter() - started:.1f}s wall)"
            )
    aggregate = speedup(agg["per-signature"], agg["incremental"])
    return {
        "kind": "repro-solve-ab",
        "repeats": repeats,
        "queries": list(queries),
        "scenarios": results,
        "aggregate": {
            "per_signature_solve_s": round(agg["per-signature"], 4),
            "incremental_solve_s": round(agg["incremental"], 4),
            "solve_speedup": aggregate,
        },
    }


def format_ab_table(payload: dict) -> str:
    """Render a solve-A/B payload as an aligned table."""
    rows = []
    for name, row in payload["scenarios"].items():
        strategies = row["strategies"]
        rows.append(
            [
                name,
                f"{row['profile']['suspect_rate']:.0%}",
                f"{strategies['per-signature']['solve']:.3f}",
                f"{strategies['incremental']['solve']:.3f}",
                format_speedup(row["solve_speedup"]),
                "yes" if row["answers_identical"] else "NO",
            ]
        )
    aggregate = payload["aggregate"]
    rows.append(
        [
            "Σ",
            "",
            f"{aggregate['per_signature_solve_s']:.3f}",
            f"{aggregate['incremental_solve_s']:.3f}",
            format_speedup(aggregate["solve_speedup"]),
            "",
        ]
    )
    return format_table(
        ["scenario", "suspects", "per-sig[s]", "incr[s]", "speedup", "same"],
        rows,
        title=(
            f"solve-strategy A/B, best of {payload['repeats']} repeat(s) "
            f"over {','.join(payload['queries'])}"
        ),
    )
