"""Command-line interface.

Mirrors the paper implementation's inputs — a schema mapping as text, a
source instance, and queries — without writing any Python::

    python -m repro answer  -m mapping.txt -d data.txt -q "q(x) :- T(x, y)."
    python -m repro answer  -m mapping.txt -d data.txt -q "..." --updates updates.txt
    python -m repro repairs -m mapping.txt -d data.txt --limit 5
    python -m repro check   -m mapping.txt -d data.txt
    python -m repro fuzz    --seeds 200 --shrink
    python -m repro fuzz    --seeds 100 --updates 20

``answer`` prints the XR-Certain answers (or XR-Possible with
``--possible``); with ``--updates`` it first replays a stream of source
inserts/retracts through the incremental maintenance layer
(:mod:`repro.incremental`) and answers against the updated state.
``repairs`` enumerates exchange-repair solutions; ``check`` runs the
exchange phase and reports violations, clusters, and the suspect/safe
split; ``fuzz`` runs a differential campaign across every engine
configuration (with ``--updates N``: an update-workload campaign
comparing incremental maintenance against from-scratch re-exchange at
every step) and exits non-zero on any disagreement.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.obs import Recorder, write_prometheus, write_trace_json
from repro.parser import parse_instance, parse_mapping, parse_program
from repro.runtime.budget import NO_BUDGET, SolveBudget
from repro.xr.monolithic import MonolithicEngine
from repro.xr.segmentary import SegmentaryEngine
from repro.xr.solutions import xr_solutions


def _load(arguments) -> tuple:
    with open(arguments.mapping) as handle:
        mapping = parse_mapping(handle.read())
    with open(arguments.data) as handle:
        instance = parse_instance(handle.read())
    return mapping, instance


def _recorder_from(arguments) -> Recorder | None:
    """A live recorder when ``--trace`` or ``--metrics`` was given."""
    if getattr(arguments, "trace", None) or getattr(arguments, "metrics", None):
        return Recorder.create()
    return None


def _write_observability(arguments, obs: Recorder | None) -> None:
    if obs is None:
        return
    if arguments.trace:
        path = write_trace_json(arguments.trace, obs)
        print(f"% trace written to {path}")
    if arguments.metrics:
        path = write_prometheus(arguments.metrics, obs.metrics)
        print(f"% metrics written to {path}")


def _budget_from(arguments) -> SolveBudget:
    if not (arguments.deadline or arguments.task_timeout or arguments.retries):
        return NO_BUDGET
    return SolveBudget(
        deadline=arguments.deadline,
        task_timeout=arguments.task_timeout,
        max_retries=arguments.retries,
    )


def _command_answer(arguments) -> int:
    mapping, instance = _load(arguments)
    query = parse_program(arguments.query)
    budget = _budget_from(arguments)
    updates = None
    if getattr(arguments, "updates", None):
        if arguments.method != "segmentary":
            print(
                "--updates requires the segmentary method (incremental "
                "maintenance lives on the segmentary engine)",
                file=sys.stderr,
            )
            return 2
        from repro.incremental import parse_update_stream

        with open(arguments.updates) as handle:
            updates = parse_update_stream(handle.read())
    # A configured budget implies degraded answers are acceptable: that is
    # the point of setting one.  Without a budget nothing can time out and
    # the flag is irrelevant.
    allow_partial = not budget.is_null
    mode = "possible" if arguments.possible else "certain"
    kind = "XR-Possible" if arguments.possible else "XR-Certain"
    obs = _recorder_from(arguments)
    started = time.perf_counter()
    degraded = False
    unknown: set = set()
    phase_note = None
    if arguments.method == "monolithic":
        engine = MonolithicEngine(mapping, instance, budget=budget, obs=obs)
        if arguments.possible:
            answers = engine.possible_answers(query, allow_partial=allow_partial)
        else:
            answers = engine.answer(query, allow_partial=allow_partial)
        degraded = engine.last_stats.degraded
        unknown = engine.last_stats.unknown_candidates
    else:
        with SegmentaryEngine(
            mapping, instance, jobs=arguments.jobs, budget=budget, obs=obs
        ) as engine:
            if updates is not None:
                session = engine.update_session()
                reports = session.apply_stream(updates)
                totals = session.stats
                print(
                    f"% applied {len(reports)} update step(s) "
                    f"({totals.noop_deltas} no-op) in "
                    f"{totals.seconds:.3f}s: "
                    f"{totals.clusters_touched} cluster(s) touched, "
                    f"{totals.clusters_retired} retired, "
                    f"{totals.cache_invalidated} cache entr(ies) "
                    f"invalidated"
                )
            answers, stats = engine.answer_with_stats(
                query, mode=mode, allow_partial=allow_partial
            )
        degraded = stats.degraded
        unknown = stats.unknown_candidates
        if stats.programs_solved or stats.cache_hits or stats.timeouts:
            phase_note = (
                f"% query phase: {stats.programs_solved} program(s) solved "
                f"via {stats.executor} executor, {stats.cache_hits} cache "
                f"hit(s), {stats.solve_seconds:.2f}s solving"
            )
            if stats.timeouts or stats.retries:
                phase_note += (
                    f", {stats.timeouts} timeout(s), {stats.retries} retry(ies)"
                )
    elapsed = time.perf_counter() - started
    print(f"% {kind} answers ({arguments.method}, {elapsed:.2f}s)")
    if phase_note:
        print(phase_note)
    if degraded:
        relation = "excluded from" if mode == "certain" else "included in"
        print(
            f"% DEGRADED: budget exhausted; {len(unknown)} candidate(s) "
            f"undecided and conservatively {relation} the answers below"
        )
        for row in sorted(unknown, key=repr):
            inner = ", ".join(repr(value) for value in row)
            print(f"% unknown: {query.name}({inner})")
    if not answers:
        print("% (none)")
    for row in sorted(answers, key=repr):
        inner = ", ".join(repr(value) for value in row)
        print(f"{query.name}({inner}).")
    _write_observability(arguments, obs)
    return 0


def _command_repairs(arguments) -> int:
    mapping, instance = _load(arguments)
    count = 0
    for solution in xr_solutions(mapping, instance, limit=arguments.limit):
        count += 1
        print(f"% repair {count}: {solution.deleted} source fact(s) deleted")
        for fact in sorted(solution.source_repair, key=repr):
            print(f"  {fact!r}.")
    if count == 0:
        print("% no repairs (empty instance)")
    return 0


def _command_check(arguments) -> int:
    mapping, instance = _load(arguments)
    with SegmentaryEngine(mapping, instance) as engine:
        stats = engine.exchange()
    print(f"source facts:        {stats.source_facts}")
    print(f"chased facts:        {stats.chased_facts}")
    print(f"egd violations:      {stats.violations}")
    print(f"violation clusters:  {stats.clusters}")
    print(f"suspect source facts: {stats.suspect_source_facts}")
    print(f"safe source facts:    {stats.safe_source_facts}")
    if stats.violations:
        print("status: INCONSISTENT (queries answered under XR-Certain semantics)")
        return 1
    print("status: consistent")
    return 0


def _command_fuzz(arguments) -> int:
    from dataclasses import replace

    from repro.fuzz import DEFAULT_CONFIG, close_shared_executor, run_fuzz

    config = replace(
        DEFAULT_CONFIG,
        profile=arguments.profile,
        max_facts=arguments.max_facts,
        conflict_rate=arguments.conflict_rate,
        use_oracle=not arguments.no_oracle,
        check_parallel=not arguments.no_parallel,
        check_faults=arguments.faults,
    )
    if arguments.updates:
        from repro.fuzz import run_update_fuzz

        summary = run_update_fuzz(
            seeds=arguments.seeds,
            start=arguments.start,
            steps=arguments.updates,
            config=config,
            jobs=arguments.jobs,
            shrink=arguments.shrink,
            corpus_dir=arguments.corpus,
            log=print,
        )
        mode_note = f"update streams × {arguments.updates} step(s)"
    else:
        summary = run_fuzz(
            seeds=arguments.seeds,
            start=arguments.start,
            config=config,
            jobs=arguments.jobs,
            shrink=arguments.shrink,
            corpus_dir=arguments.corpus,
            log=print,
        )
        close_shared_executor()
        mode_note = config.profile
    print(
        f"% {summary.seeds} seed(s) from {summary.start} "
        f"({mode_note}), {summary.seconds:.1f}s, "
        f"{len(summary.failures)} failure(s)"
    )
    for failure in summary.failures:
        print(f"%% seed {failure.seed}: " + "; ".join(failure.discrepancies))
        text = failure.shrunk_text or failure.scenario_text
        print(text, end="" if text.endswith("\n") else "\n")
    return 0 if summary.ok else 1


def _command_serve(arguments) -> int:
    from repro.serve import QueryService, ServiceConfig, run_serve

    if arguments.scenario:
        if arguments.mapping or arguments.data:
            print("--scenario and -m/-d are mutually exclusive",
                  file=sys.stderr)
            return 2
        from repro.bench.micro import parse_scenario_name
        from repro.genomics.instances import build_instance
        from repro.genomics.schema import genome_mapping
        from repro.reduction.reduce import reduce_mapping

        mapping = reduce_mapping(genome_mapping())
        instance = build_instance(
            parse_scenario_name(arguments.scenario)
        ).instance
        print(f"% loaded genomics scenario {arguments.scenario} "
              f"({len(instance)} source facts)")
    elif arguments.mapping and arguments.data:
        mapping, instance = _load(arguments)
    else:
        print("pass --scenario NAME or both -m/--mapping and -d/--data",
              file=sys.stderr)
        return 2
    config = ServiceConfig(
        jobs=arguments.jobs,
        deadline=arguments.deadline,
        task_timeout=arguments.task_timeout,
        max_retries=arguments.retries,
        max_inflight=arguments.max_inflight,
        max_queue=arguments.max_queue,
        queue_timeout=arguments.queue_timeout,
    )
    started = time.perf_counter()
    service = QueryService(mapping, instance, config)
    exchange = service.engine.exchange_stats
    print(f"% exchange materialized in {time.perf_counter() - started:.2f}s "
          f"({exchange.chased_facts} chased facts, "
          f"{exchange.clusters} cluster(s))")
    return run_serve(service, host=arguments.host, port=arguments.port)


def _command_bench(arguments) -> int:
    from repro.bench.micro import (
        MICRO_QUERIES,
        format_micro_table,
        run_micro,
    )
    from repro.bench.reporting import print_flush, write_benchmark_json

    if arguments.serve:
        from repro.bench.serve import (
            SERVE_QUERIES,
            SERVE_SCENARIOS,
            format_serve_table,
            run_serve_bench,
        )

        scenarios = (
            tuple(arguments.scenarios.split(","))
            if arguments.scenarios else SERVE_SCENARIOS
        )
        queries = (
            tuple(arguments.queries.split(",")) if arguments.queries
            else SERVE_QUERIES
        )
        payload = run_serve_bench(
            scenarios=scenarios,
            clients=arguments.clients,
            duration=arguments.duration,
            warmup=arguments.warmup,
            queries=queries,
            url=arguments.url,
            jobs=arguments.jobs,
            log=print_flush,
        )
        print(format_serve_table(payload))
        if arguments.json:
            path = write_benchmark_json(arguments.json, payload)
            print(f"% artifact written to {path}")
        total_errors = sum(
            row["errors"] for row in payload["scenarios"].values()
        )
        if total_errors:
            print(f"% FAIL: {total_errors} non-degraded error(s)",
                  file=sys.stderr)
            return 1
        if arguments.qps_floor is not None:
            below = {
                name: row["qps"]
                for name, row in payload["scenarios"].items()
                if row["qps"] < arguments.qps_floor
            }
            if below:
                print(f"% FAIL: qps below floor {arguments.qps_floor}: "
                      f"{below}", file=sys.stderr)
                return 1
        return 0
    if not arguments.micro:
        print("nothing to do: pass --micro or --serve (paper-style "
              "tables live in benchmarks/, run them with pytest)",
              file=sys.stderr)
        return 2
    scenarios = arguments.scenarios.split(",") if arguments.scenarios else None
    queries = (
        tuple(arguments.queries.split(",")) if arguments.queries
        else MICRO_QUERIES
    )
    obs = _recorder_from(arguments)
    payload = run_micro(
        scenarios=scenarios,
        repeats=arguments.repeats,
        queries=queries,
        log=print_flush,
        obs=obs,
    )
    print(format_micro_table(payload))
    if arguments.json:
        path = write_benchmark_json(arguments.json, payload)
        print(f"% artifact written to {path}")
    _write_observability(arguments, obs)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XR-Certain query answering in data exchange "
        "(ten Cate, Halpert, Kolaitis, EDBT 2016).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("-m", "--mapping", required=True,
                         help="schema mapping file (SOURCE/TARGET + rules)")
        sub.add_argument("-d", "--data", required=True,
                         help="source instance file (ground facts)")

    def observability(sub):
        sub.add_argument("--trace", metavar="PATH",
                         help="record nested phase spans and write the "
                         "JSON trace document to PATH (adds overhead; "
                         "answers are unchanged)")
        sub.add_argument("--metrics", metavar="PATH",
                         help="record work counters and write "
                         "Prometheus-style text to PATH")

    answer = commands.add_parser(
        "answer", aliases=["query"], help="answer a target query"
    )
    common(answer)
    answer.add_argument("-q", "--query", required=True,
                        help='query text, e.g. "q(x) :- T(x, y)."')
    answer.add_argument("--method", choices=("segmentary", "monolithic"),
                        default="segmentary")
    answer.add_argument("--possible", action="store_true",
                        help="brave (XR-Possible) instead of certain answers")
    answer.add_argument("--updates", metavar="PATH",
                        help="replay an update stream (lines '+Fact.' / "
                        "'-Fact.', blank-line-separated steps) through the "
                        "incremental maintenance layer before answering "
                        "(segmentary method only)")
    answer.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for signature solving "
                        "(segmentary method only; default 1 = in-process)")
    answer.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget for the whole query; on "
                        "expiry undecided candidates are reported unknown "
                        "instead of solved (degraded answers)")
    answer.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-family-program solve budget "
                        "(segmentary) / whole-solve budget (monolithic)")
    answer.add_argument("--retries", type=int, default=0, metavar="N",
                        help="re-dispatch attempts for tasks whose worker "
                        "process crashed (default 0)")
    observability(answer)
    answer.set_defaults(run=_command_answer)

    repairs = commands.add_parser("repairs", help="enumerate XR-solutions")
    common(repairs)
    repairs.add_argument("--limit", type=int, default=10)
    repairs.set_defaults(run=_command_repairs)

    check = commands.add_parser("check", help="exchange-phase consistency report")
    common(check)
    check.set_defaults(run=_command_check)

    fuzz = commands.add_parser(
        "fuzz", help="differential fuzzing across all engine configurations"
    )
    fuzz.add_argument("--seeds", type=int, default=100, metavar="N",
                      help="number of consecutive seeds to run (default 100)")
    fuzz.add_argument("--start", type=int, default=0, metavar="SEED",
                      help="first seed (default 0)")
    fuzz.add_argument("--profile",
                      choices=("mixed", "freeform", "ibench", "tpch"),
                      default="mixed", help="scenario generator profile")
    fuzz.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes for the campaign (default 1)")
    fuzz.add_argument("--shrink", action="store_true",
                      help="delta-debug failures down to minimal repros")
    fuzz.add_argument("--corpus", metavar="DIR",
                      help="write failing repros into DIR for replay")
    fuzz.add_argument("--max-facts", type=int, default=8, metavar="N",
                      help="max source facts per scenario (default 8)")
    fuzz.add_argument("--conflict-rate", type=float, default=0.6,
                      metavar="RATE", help="constant-collision bias in [0, 1] "
                      "(higher = more egd conflicts; default 0.6)")
    fuzz.add_argument("--no-oracle", action="store_true",
                      help="skip the Definition 1 oracle (faster, weaker)")
    fuzz.add_argument("--no-parallel", action="store_true",
                      help="skip the parallel-executor engine axis")
    fuzz.add_argument("--updates", type=int, default=0, metavar="STEPS",
                      help="update-workload mode: per seed, generate a "
                      "STEPS-step random insert/retract stream and check "
                      "incremental maintenance against from-scratch "
                      "re-exchange at every step (answers, clusters, "
                      "envelopes)")
    fuzz.add_argument("--faults", action="store_true",
                      help="also inject seeded worker crashes/hangs per "
                      "scenario and check recovery + degradation "
                      "invariants (repro.fuzz.faults)")
    fuzz.set_defaults(run=_command_fuzz)

    serve = commands.add_parser(
        "serve", help="long-lived HTTP query service over one scenario"
    )
    serve.add_argument("-m", "--mapping",
                       help="schema mapping file (SOURCE/TARGET + rules)")
    serve.add_argument("-d", "--data",
                       help="source instance file (ground facts)")
    serve.add_argument("--scenario", metavar="S3",
                       help="serve a genomics micro-benchmark scenario "
                       "(size letter + suspect percent) instead of -m/-d")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (default 8080; 0 = ephemeral)")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for signature solving "
                       "(default 1 = in-process)")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request wall-clock ceiling; over-deadline "
                       "requests degrade (unknown candidates surfaced) "
                       "instead of failing")
    serve.add_argument("--task-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-family-program solve ceiling")
    serve.add_argument("--retries", type=int, default=0, metavar="N",
                       help="re-dispatch attempts after worker crashes "
                       "(default 0)")
    serve.add_argument("--max-inflight", type=int, default=8, metavar="N",
                       help="concurrent query executions admitted "
                       "(default 8)")
    serve.add_argument("--max-queue", type=int, default=16, metavar="N",
                       help="requests allowed to wait for a slot; beyond "
                       "this, immediate 429 (default 16)")
    serve.add_argument("--queue-timeout", type=float, default=2.0,
                       metavar="SECONDS",
                       help="max wait for an execution slot before 429 "
                       "(default 2.0)")
    serve.set_defaults(run=_command_serve)

    bench = commands.add_parser(
        "bench", help="micro-benchmarks of the deterministic hot paths"
    )
    bench.add_argument("--micro", action="store_true",
                       help="run the exchange/program-build/solve "
                       "micro-benchmark grid")
    bench.add_argument("--scenarios", metavar="S0,M9,...",
                       help="comma-separated scenario names: genomics cells "
                       "(size letter + suspect percent) and/or TPC-H cells "
                       "(tpch-sfS-rR); default: S/M/L × 0/3/9/20 plus the "
                       "small TPC-H cells")
    bench.add_argument("--repeats", type=int, default=3, metavar="N",
                       help="repeats per scenario; medians are reported "
                       "(default 3)")
    bench.add_argument("--queries", metavar="ep2,xr2,...",
                       help="comma-separated Table 3 query names for the "
                       "query-phase stages (default ep2,xr2,xr4)")
    bench.add_argument("--json", metavar="PATH",
                       help="write the artifact payload to PATH")
    bench.add_argument("--serve", action="store_true",
                       help="load-test the serving tier: N client threads "
                       "over the genomics grid, p50/p99 latency + "
                       "sustained QPS (BENCH_PR9.json)")
    bench.add_argument("--clients", type=int, default=8, metavar="N",
                       help="concurrent client threads for --serve "
                       "(default 8)")
    bench.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="server-side worker processes for --serve "
                       "(default 1)")
    bench.add_argument("--duration", type=float, default=5.0,
                       metavar="SECONDS",
                       help="measured window per scenario for --serve "
                       "(default 5.0)")
    bench.add_argument("--warmup", type=float, default=1.0,
                       metavar="SECONDS",
                       help="warmup excluded from --serve percentiles "
                       "(default 1.0)")
    bench.add_argument("--url", metavar="http://HOST:PORT",
                       help="target an externally-booted server instead "
                       "of in-process ones (--serve only; CI smoke)")
    bench.add_argument("--qps-floor", type=float, default=None,
                       metavar="QPS",
                       help="exit non-zero when any --serve scenario "
                       "sustains less than this (CI enforcement)")
    observability(bench)
    bench.set_defaults(run=_command_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    arguments = build_parser().parse_args(argv)
    return arguments.run(arguments)


if __name__ == "__main__":
    sys.exit(main())
