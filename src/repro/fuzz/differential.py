"""Cross-engine differential checking.

:func:`run_differential` executes one scenario through every sound engine
configuration and collects *discrepancies*:

- **certain-mismatch** — a certain-answer set differs from the baseline
  (the Definition 1 oracle when the instance is small enough, else the
  monolithic Theorem 2 engine);
- **possible-mismatch** — an XR-Possible answer set differs;
- **figure1-missing** — the literal Figure 1 encoding returned *fewer*
  answers than the baseline.  Figure 1 is known to over-approximate
  XR-Certain (it can miss repairs — DESIGN §7), so ``baseline ⊆ figure1``
  is the strongest sound cross-check for it; a missing answer is a bug.
  In the extreme the encoding misses *every* repair and its program has
  no stable model at all — that outcome is recorded as the documented
  erratum (the check is vacuous), not as a crash;
- **warm-cache-mismatch** — answering the same query twice on one engine
  (cache cold, then warm) changed the answers;
- **certain-not-possible** — an answer certain but not possible;
- **candidate-invariant** — a certain answer that is not even a candidate
  answer, i.e. not a grounding of the reduced query over the reduced
  mapping's quasi-solution (certain ⊆ candidates, §6.4);
- **exchange-mismatch** — the exchange data differs from the nested-loop
  :func:`~repro.chase.gav.reference_exchange_data` (chased set or any
  :data:`~repro.chase.gav.COMPARED_FIELDS` field);
- **grounding-mismatch** — the query grounding differs from
  :func:`~repro.chase.gav.reference_ground_query` as a set of
  (candidate, support) pairs;
- **crash** — an engine raised.

Engine matrix for the segmentary engine: cache cold vs warm vs disabled.
Every segmentary run merges signature groups that share a cluster into
one family; comparing it with the monolithic engine's one program (and the
oracle) checks that merge on every scenario.  All knobs are answer-neutral
by design; the fuzzer is the enforcement.

Two difficulty gates keep worst-case scenarios from stalling a campaign:
the Definition 1 oracle only runs up to ``oracle_max_facts`` source facts
(repair enumeration is exponential in the instance), and the two checks
that *enumerate stable models* of the one big monolithic program — the
Figure 1 encoding and the monolithic possible-answer pass — only run up
to ``enumerative_limit`` chase groundings (model enumeration is
exponential in the program).  The repair-encoding, segmentary and cache
agreement checks always run.

:func:`run_fuzz` drives a whole campaign — seeded scenario generation,
optional multiprocess fan-out over seeds, delta-debugging shrink of any
failure, and serialization of minimal repros into a corpus directory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from repro.chase.gav import (
    exchange_mismatches,
    reference_exchange_data,
    reference_ground_query,
)
from repro.fuzz.generator import DEFAULT_CONFIG, FuzzConfig, random_scenario
from repro.fuzz.render import Scenario, render_scenario
from repro.reduction.reduce import reduce_mapping
from repro.xr.exchange import build_exchange_data
from repro.xr.monolithic import MonolithicEngine
from repro.xr.oracle import xr_certain_oracle, xr_possible_oracle
from repro.xr.queries import answers_from_facts, ground_query
from repro.xr.segmentary import SegmentaryEngine


@dataclass(frozen=True)
class Discrepancy:
    """One observed disagreement between two engine configurations."""

    kind: str
    left: str
    right: str
    detail: str = ""

    def __str__(self) -> str:
        tail = f": {self.detail}" if self.detail else ""
        return f"[{self.kind}] {self.left} vs {self.right}{tail}"


@dataclass
class DifferentialReport:
    """Everything one :func:`run_differential` call observed."""

    scenario: Scenario
    discrepancies: list[Discrepancy] = field(default_factory=list)
    certain: dict[str, frozenset] = field(default_factory=dict)
    possible: dict[str, frozenset] = field(default_factory=dict)
    engines: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def _fmt(answers: Iterable[tuple]) -> str:
    rows = sorted(answers, key=repr)
    if len(rows) > 6:
        rows = rows[:6] + ["..."]  # type: ignore[list-item]
    return "{" + ", ".join(map(repr, rows)) + "}"


def run_differential(
    scenario: Scenario, config: FuzzConfig = DEFAULT_CONFIG
) -> DifferentialReport:
    """Run ``scenario`` through the engine matrix and compare everything."""
    report = DifferentialReport(scenario=scenario)
    mapping, instance, query = scenario.mapping, scenario.instance, scenario.query

    def run(name: str, kind: str, call: Callable[[], set]) -> frozenset | None:
        try:
            answers = frozenset(call())
        except Exception as error:  # noqa: BLE001 — a crash IS a finding
            report.discrepancies.append(
                Discrepancy("crash", name, "-", f"{type(error).__name__}: {error}")
            )
            return None
        report.engines.append(name)
        (report.certain if kind == "certain" else report.possible)[name] = answers
        return answers

    # The reduced exchange data serves double duty: it sizes the scenario
    # for the difficulty gate (``enumerative_limit``) and feeds the
    # candidate-answer invariant at the end.  A failure here is not
    # swallowed silently — the engines below hit the same code and crash.
    reduced = data = None
    try:
        reduced = reduce_mapping(mapping)
        data = build_exchange_data(reduced.gav, instance)
    except Exception:  # noqa: BLE001 — reported via the engine runs
        pass
    heavy = data is None or len(data.groundings) > config.enumerative_limit

    with_oracle = config.use_oracle and len(instance) <= config.oracle_max_facts
    if with_oracle:
        run("oracle", "certain", lambda: xr_certain_oracle(query, instance, mapping))
        if config.check_possible:
            run(
                "oracle-possible",
                "possible",
                lambda: xr_possible_oracle(query, instance, mapping),
            )

    monolithic = MonolithicEngine(mapping, instance)
    run("monolithic", "certain", lambda: monolithic.answer(query))
    if config.check_possible and not heavy:
        run(
            "monolithic-possible",
            "possible",
            lambda: monolithic.possible_answers(query),
        )

    figure1: frozenset | None = None
    if config.check_figure1 and not heavy:
        # The literal Figure 1 program misses repairs (DESIGN §7).  When it
        # misses *every* repair it has no stable model at all and cautious
        # consequence is vacuous — the erratum in its total form, observed
        # on real fuzz seeds.  That outcome is documented behavior, not a
        # crash; only a *missing answer* (checked below) is a bug.
        fig_engine = MonolithicEngine(mapping, instance, encoding="figure1")
        try:
            figure1 = frozenset(fig_engine.answer(query))
        except RuntimeError as error:
            if "no stable model" not in str(error):
                raise
            figure1 = None
        except Exception as error:  # noqa: BLE001
            report.discrepancies.append(
                Discrepancy(
                    "crash", "monolithic-figure1", "-",
                    f"{type(error).__name__}: {error}",
                )
            )
        else:
            if figure1 is not None:
                report.engines.append("monolithic-figure1")
                report.certain["monolithic-figure1"] = figure1

    with SegmentaryEngine(mapping, instance, cache=True) as cached:
        cold = run("segmentary-cold", "certain", lambda: cached.answer(query))
        warm = run("segmentary-warm", "certain", lambda: cached.answer(query))
        if config.check_possible:
            run(
                "segmentary-possible",
                "possible",
                lambda: cached.possible_answers(query),
            )

    with SegmentaryEngine(mapping, instance, cache=False) as nocache:
        run("segmentary-nocache", "certain", lambda: nocache.answer(query))

    if data is not None:
        report.discrepancies.extend(
            _reference_discrepancies(reduced, instance, query, data)
        )
        report.engines += ["reference-exchange", "reference-grounding"]

    # ----------------------------------------------------------- compare

    # ``monolithic-figure1`` is checked one-sidedly below, never by equality.
    comparable = {
        name: answers
        for name, answers in report.certain.items()
        if name != "monolithic-figure1"
    }
    baseline_name = "oracle" if "oracle" in comparable else "monolithic"
    baseline = comparable.get(baseline_name)
    if baseline is not None:
        for name, answers in comparable.items():
            if name != baseline_name and answers != baseline:
                report.discrepancies.append(
                    Discrepancy(
                        "certain-mismatch",
                        baseline_name,
                        name,
                        f"{_fmt(baseline)} != {_fmt(answers)}",
                    )
                )
        if figure1 is not None and not baseline <= figure1:
            report.discrepancies.append(
                Discrepancy(
                    "figure1-missing",
                    baseline_name,
                    "monolithic-figure1",
                    f"missing {_fmt(baseline - figure1)} (figure1 may only "
                    "over-approximate)",
                )
            )

    if cold is not None and warm is not None and cold != warm:
        report.discrepancies.append(
            Discrepancy(
                "warm-cache-mismatch",
                "segmentary-cold",
                "segmentary-warm",
                f"{_fmt(cold)} != {_fmt(warm)}",
            )
        )

    if report.possible:
        possible_values = list(report.possible.items())
        first_name, first = possible_values[0]
        for name, answers in possible_values[1:]:
            if answers != first:
                report.discrepancies.append(
                    Discrepancy(
                        "possible-mismatch",
                        first_name,
                        name,
                        f"{_fmt(first)} != {_fmt(answers)}",
                    )
                )
        if baseline is not None and not baseline <= first:
            report.discrepancies.append(
                Discrepancy(
                    "certain-not-possible",
                    baseline_name,
                    first_name,
                    f"certain {_fmt(baseline - first)} not possible",
                )
            )

    if baseline is not None and reduced is not None and data is not None:
        try:
            # Candidate answers: groundings of the (reduced) query over the
            # quasi-solution — the same notion §6.4 starts from.  The plain
            # tgd-only chase would be wrong here: egds can equate nulls
            # with constants, creating certain answers it never exhibits.
            groundings = ground_query(reduced.rewrite(query), data)
            candidates = frozenset(
                answers_from_facts({cand for cand, _support in groundings})
            )
            if not baseline <= candidates:
                report.discrepancies.append(
                    Discrepancy(
                        "candidate-invariant",
                        baseline_name,
                        "chase-candidates",
                        f"certain {_fmt(baseline - candidates)} is not even a "
                        "candidate answer",
                    )
                )
        except Exception as error:  # noqa: BLE001
            report.discrepancies.append(
                Discrepancy(
                    "crash", "chase-candidates", "-",
                    f"{type(error).__name__}: {error}",
                )
            )

    return report


def _reference_discrepancies(reduced, instance, query, data) -> list[Discrepancy]:
    """The exchange data and the query grounding against the nested-loop
    reference: equal artifacts, not merely equal answers."""
    try:
        reference = reference_exchange_data(reduced.gav, instance)
        rewritten = reduced.rewrite(query)
        fact_of = data.facts_by_id.__getitem__
        grounded = {
            (candidate, tuple(map(fact_of, support)))
            for candidate, support in ground_query(rewritten, data)
        }
        expected = set(reference_ground_query(rewritten, reference.chased))
    except Exception as error:  # noqa: BLE001 — a crash IS a finding
        detail = f"{type(error).__name__}: {error}"
        return [Discrepancy("crash", "reference-exchange", "-", detail)]
    problems = [
        Discrepancy("exchange-mismatch", "reference", "batch", name)
        for name in exchange_mismatches(data, reference)
    ]
    if grounded != expected:
        problems.append(
            Discrepancy(
                "grounding-mismatch", "reference", "batch",
                f"missing {len(expected - grounded)}, extra "
                f"{len(grounded - expected)} (candidate, support) pairs",
            )
        )
    return problems


# -------------------------------------------------------------- campaign


@dataclass
class FuzzFailure:
    """One failing seed: the original scenario and its shrunken repro."""

    seed: int
    discrepancies: list[str]
    scenario_text: str
    shrunk_text: str | None = None
    repro_path: str | None = None


@dataclass
class FuzzSummary:
    """The outcome of a fuzzing campaign."""

    seeds: int
    start: int
    failures: list[FuzzFailure] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def check_seed(seed: int, config: FuzzConfig = DEFAULT_CONFIG) -> DifferentialReport:
    """Generate the scenario for ``seed`` and run the differential matrix.

    With ``config.check_faults`` the injected-cutoff differential
    (:mod:`repro.fuzz.faults`) runs after the clean matrix: seeded family
    solves are cut off mid-search, and the degraded answers must bracket
    the exact ones.
    """
    scenario = random_scenario(seed, config)
    report = run_differential(scenario, config)
    if config.check_faults:
        from repro.fuzz.faults import run_fault_check

        report.discrepancies.extend(run_fault_check(scenario, seed=seed))
    return report


def _worker_check(args: tuple) -> tuple[int, list[str]]:
    seed, config = args
    report = check_seed(seed, config)
    return seed, [str(d) for d in report.discrepancies]


def _iter_reports(
    seeds: Iterable[int], config: FuzzConfig, jobs: int
) -> Iterable[tuple[int, list[str]]]:
    seeds = list(seeds)
    if jobs > 1:
        try:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # ``spawn``, not fork: a fork()ed worker can inherit a lock
            # some other thread of the parent held mid-acquisition.
            # Spawned workers start from a clean interpreter.
            with ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=multiprocessing.get_context("spawn"),
            ) as pool:
                yield from pool.map(
                    _worker_check,
                    [(seed, config) for seed in seeds],
                    chunksize=max(1, len(seeds) // (jobs * 4) or 1),
                )
                return
        except Exception:  # pool unavailable (sandbox, spawn failure): degrade
            pass
    for seed in seeds:
        yield _worker_check((seed, config))


def run_fuzz(
    seeds: int,
    start: int = 0,
    config: FuzzConfig = DEFAULT_CONFIG,
    jobs: int = 1,
    shrink: bool = False,
    corpus_dir: str | None = None,
    log: Callable[[str], None] | None = None,
) -> FuzzSummary:
    """A fuzzing campaign over ``seeds`` consecutive seeds.

    Failures are re-derived deterministically from their seed, optionally
    shrunk to a minimal repro, and (with ``corpus_dir``) serialized for
    replay.  Returns a :class:`FuzzSummary`; zero failures means every
    engine configuration agreed on every scenario.
    """
    emit = log or (lambda message: None)
    summary = FuzzSummary(seeds=seeds, start=start)
    started = time.perf_counter()
    done = 0
    seen: set[int] = set()
    for seed, problems in _iter_reports(range(start, start + seeds), config, jobs):
        if seed in seen:  # pool died mid-iteration; sequential pass repeats
            continue
        seen.add(seed)
        done += 1
        if done % 50 == 0:
            emit(f"... {done}/{seeds} seeds, {len(summary.failures)} failure(s)")
        if not problems:
            continue
        scenario = random_scenario(seed, config)
        failure = FuzzFailure(
            seed=seed,
            discrepancies=problems,
            scenario_text=render_scenario(scenario),
        )
        emit(f"FAIL seed={seed}: " + "; ".join(problems))
        if shrink:
            from repro.fuzz.shrink import shrink_scenario

            # No injected cutoffs while shrinking: their plan depends on
            # the seed, and the shrunk scenario no longer corresponds to
            # one.
            shrink_config = replace(config, check_faults=False)
            minimal = shrink_scenario(
                scenario,
                lambda s: not run_differential(s, shrink_config).ok,
            )
            failure.shrunk_text = render_scenario(minimal)
            emit(
                f"  shrunk to {len(minimal.instance)} fact(s), "
                f"{len(minimal.mapping.st_tgds) + len(minimal.mapping.target_tgds)}"
                f" tgd(s), {len(minimal.mapping.target_egds)} egd(s)"
            )
            scenario = minimal
        if corpus_dir is not None:
            from repro.fuzz.corpus import save_repro

            path = save_repro(scenario, corpus_dir, name=f"fuzz-seed-{seed}")
            failure.repro_path = str(path)
            emit(f"  repro written to {path}")
        summary.failures.append(failure)
    summary.seconds = time.perf_counter() - started
    return summary
