"""Update-workload differential fuzzing (the second pillar of PR 7).

Answer-exactness under updates must be *proven*, not assumed (Hernich's
non-monotonic-query analyses are the cautionary tale): this harness
generates a seeded random insert/retract stream per scenario and checks,
**at every step**, that incremental maintenance
(:class:`~repro.incremental.UpdateSession` over one warm engine, cache and
all) agrees bit-for-bit with a from-scratch re-exchange of the updated
instance:

- the chased instance, the grounding set (keyed by rule label — two
  independent reductions α-rename rule variables), and the canonical
  violation keys — against both the production re-exchange and the
  nested-loop :func:`~repro.chase.gav.reference_exchange_data`;
- the cluster partition (as sets of violation keys) and the cluster
  source envelopes;
- the safe source split and the safe chase;
- XR-certain *and* XR-possible answers to the scenario's query — the
  warm engine answers through its maintained cache, so a stale cache
  entry surviving an invalidation shows up here;
- the same answers again with the cache's answer layers dropped and its
  engine store kept, so every candidate is decided on the family engines
  that survived the step's invalidation, plus the store's invariant that
  no kept engine names a retired cluster.

Failures shrink with ddmin over the update stream (drop steps, then thin
individual steps fact-by-fact, then ddmin the scenario's base facts with
the stream pinned) and serialize to ``*.uprepro`` corpus files: the
regular scenario format followed by a ``% --- updates ---`` section in
the :func:`~repro.incremental.render_update_stream` format.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable

from repro.chase.gav import reference_exchange_data
from repro.fuzz.differential import FuzzFailure, FuzzSummary
from repro.fuzz.generator import (
    DEFAULT_CONFIG,
    FuzzConfig,
    _constant,
    random_scenario,
)
from repro.fuzz.render import Scenario, parse_scenario, render_scenario
from repro.incremental import (
    Delta,
    apply_delta,
    parse_update_stream,
    render_update_stream,
)
from repro.relational.instance import Fact, Instance
from repro.xr.exchange import violation_key
from repro.xr.segmentary import SegmentaryEngine

#: Section marker separating the scenario from its update stream.
UPDATES_MARKER = "% --- updates ---"
#: Corpus suffix for update repros (distinct from plain ``.repro``).
UPDATE_REPRO_SUFFIX = ".uprepro"


# ------------------------------------------------------ stream generation


def random_update_stream(
    seed: int,
    scenario: Scenario,
    steps: int,
    config: FuzzConfig = DEFAULT_CONFIG,
) -> list[Delta]:
    """A seeded random insert/retract stream against ``scenario``.

    Mixes fresh inserts (drawn from the scenario's constant pool, so they
    collide with existing values and provoke violations), retractions of
    currently-present facts, and re-insertions of previously retracted
    facts (exercising re-derivation through the grounding-key bookkeeping).
    Every step is non-empty; steps may batch up to three operations.
    """
    rng = random.Random(f"updates:{seed}")
    source_rels = list(scenario.mapping.source)
    current = scenario.instance.copy()
    retired: list[Fact] = []
    deltas: list[Delta] = []
    for _ in range(steps):
        inserts: set[Fact] = set()
        retracts: set[Fact] = set()
        for _ in range(1 if rng.random() < 0.7 else rng.randint(2, 3)):
            roll = rng.random()
            present = sorted(current, key=repr)
            if roll < 0.4 and present:
                retracts.add(rng.choice(present))
            elif roll < 0.6 and retired:
                inserts.add(rng.choice(retired))
            else:
                rel = rng.choice(source_rels)
                inserts.add(
                    Fact(
                        rel.name,
                        tuple(
                            _constant(rng, config) for _ in range(rel.arity)
                        ),
                    )
                )
        delta = Delta(inserts=frozenset(inserts), retracts=frozenset(retracts))
        if delta.normalized(current).is_noop():
            continue
        deltas.append(delta)
        for fact in delta.retracts:
            if fact not in delta.inserts and fact in current:
                retired.append(fact)
        current = apply_delta(current, delta)
    return deltas


# -------------------------------------------------------- serialization


def render_update_scenario(scenario: Scenario, deltas: list[Delta]) -> str:
    """Scenario text plus the update stream, one replayable document."""
    return (
        render_scenario(scenario)
        + f"\n{UPDATES_MARKER}\n"
        + render_update_stream(deltas)
    )


def parse_update_scenario(text: str) -> tuple[Scenario, list[Delta]]:
    """Inverse of :func:`render_update_scenario`."""
    if UPDATES_MARKER in text:
        scenario_text, updates_text = text.split(UPDATES_MARKER, 1)
    else:
        scenario_text, updates_text = text, ""
    return parse_scenario(scenario_text), parse_update_stream(updates_text)


def save_update_repro(
    scenario: Scenario,
    deltas: list[Delta],
    directory: str | Path,
    name: str,
) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}{UPDATE_REPRO_SUFFIX}"
    path.write_text(render_update_scenario(scenario, deltas))
    return path


def load_update_corpus(
    directory: str | Path,
) -> list[tuple[Path, Scenario, list[Delta]]]:
    """Every ``*.uprepro`` under ``directory``, sorted by name."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [
        (path, *parse_update_scenario(path.read_text()))
        for path in sorted(directory.glob(f"*{UPDATE_REPRO_SUFFIX}"))
    ]


# --------------------------------------------------- differential check


def _grounding_keys(data) -> Counter:
    """The groundings as a multiset of facts (ids differ between an
    updated exchange and a fresh one): a duplicated grounding counts
    twice."""
    fact_of = data.facts_by_id.__getitem__
    return Counter(
        (position, tuple(map(fact_of, body)), fact_of(head))
        for position, head, body in data.groundings
    )


def _violation_keys(data) -> set:
    return {violation_key(v) for v in data.violations}


def _cluster_partition(analysis) -> set:
    return {
        frozenset(violation_key(v) for v in cluster.violations)
        for cluster in analysis.clusters
    }


def _safe_chase(engine) -> set:
    """``Isafe ∪ chase(Isafe)`` as facts: the safe ids, mapped back."""
    facts_by_id = engine.data.facts_by_id
    return {facts_by_id[fact_id] for fact_id in engine.analysis.safe_ids}


def _cluster_envelopes(engine) -> set:
    """Each cluster's source envelope as facts: its ids, mapped back."""
    facts_by_id = engine.data.facts_by_id
    return {
        frozenset(map(facts_by_id.__getitem__, cluster.source_envelope_ids))
        for cluster in engine.analysis.clusters
    }


#: Steps whose largest cluster influences more than this many facts skip
#: the *answer* comparisons (the exchange-state comparisons always run).
#: XR answering is Πᵖ₂-hard, and a rare generated scenario chases a
#: handful of source facts into one giant cluster whose repair program
#: takes the solver hours — per step, per engine, per mode (seed 89:
#: 7 source facts → 159 chased, one cluster, >80 s per certain-mode
#: solve and growing with the stream).  The cap is a pure function of
#: the already-compared state, so both engines skip the same steps and
#: replays stay deterministic; solver-level answer correctness on hard
#: programs is covered per-scenario by the main differential campaign,
#: which solves each such program once instead of ~80 times.
ANSWER_CHECK_INFLUENCE_CAP = 96


def check_update_stream(scenario: Scenario, deltas: list[Delta]) -> list[str]:
    """Differentially replay ``deltas``; returns discrepancy strings.

    One warm incremental engine (session-maintained, cache enabled) versus
    a fresh from-scratch engine per step, whose exchange state is also
    checked against the nested-loop reference exchange.  Stops at the
    first failing step: later steps run on top of diverged state and
    would only echo it.
    Answer comparisons are skipped on solver-hard steps (see
    :data:`ANSWER_CHECK_INFLUENCE_CAP`); state comparisons never are.
    """
    problems: list[str] = []
    try:
        engine = SegmentaryEngine(scenario.mapping, scenario.instance.copy())
        engine.exchange()
        session = engine.update_session()
    except Exception as error:  # noqa: BLE001 — a crash is a finding
        return [f"crash building incremental engine: {error!r}"]

    current = scenario.instance.copy()
    try:
        for step, delta in enumerate(deltas):
            try:
                session.apply(delta)
            except Exception as error:  # noqa: BLE001
                problems.append(f"crash at step {step}: {error!r}")
                return problems
            current = apply_delta(current, delta)
            reference = SegmentaryEngine(scenario.mapping, current.copy())
            try:
                reference.exchange()
                nested = reference_exchange_data(reference.reduced.gav, current)
                checks = [
                    (prefix + kind, state(engine.data), state(scratch))
                    for prefix, scratch in (
                        ("", reference.data), ("reference-", nested)
                    )
                    for kind, state in (
                        ("chased", lambda data: set(data.chased)),
                        ("groundings", _grounding_keys),
                        ("violations", _violation_keys),
                    )
                ] + [
                    (
                        "cluster-partition",
                        _cluster_partition(engine.analysis),
                        _cluster_partition(reference.analysis),
                    ),
                    (
                        "cluster-envelopes",
                        _cluster_envelopes(engine),
                        _cluster_envelopes(reference),
                    ),
                    (
                        "suspect-source",
                        set(engine.analysis.suspect_source),
                        set(reference.analysis.suspect_source),
                    ),
                    (
                        "safe-chased",
                        _safe_chase(engine),
                        _safe_chase(reference),
                    ),
                ]
                solver_hard = any(
                    len(cluster.influence_ids) > ANSWER_CHECK_INFLUENCE_CAP
                    for cluster in reference.analysis.clusters
                )
                if not solver_hard:
                    certain = reference.answer(scenario.query)
                    possible = reference.possible_answers(scenario.query)
                    checks += [
                        (
                            "certain-answers",
                            engine.answer(scenario.query),
                            certain,
                        ),
                        (
                            "possible-answers",
                            engine.possible_answers(scenario.query),
                            possible,
                        ),
                    ]
                    engine.cache.clear_answers()
                    checks += [
                        (
                            "kept-engine-certain-answers",
                            engine.answer(scenario.query),
                            certain,
                        ),
                        (
                            "kept-engine-possible-answers",
                            engine.possible_answers(scenario.query),
                            possible,
                        ),
                    ]
                live = {cluster.index for cluster in engine.analysis.clusters}
                checks.append(
                    (
                        "engine-store",
                        {
                            key
                            for key in engine.cache.engine_keys()
                            if not live.issuperset(key[0])
                        },
                        set(),
                    )
                )
                for kind, incremental, scratch in checks:
                    if incremental != scratch:
                        missing = sorted(
                            map(repr, scratch - incremental)
                        )[:3]
                        extra = sorted(map(repr, incremental - scratch))[:3]
                        problems.append(
                            f"{kind} mismatch at step {step}: "
                            f"missing={missing} extra={extra}"
                        )
                if problems:
                    return problems
            finally:
                reference.close()
    finally:
        engine.close()
    return problems


def check_update_seed(
    seed: int,
    config: FuzzConfig = DEFAULT_CONFIG,
    steps: int = 20,
) -> list[str]:
    """Generate scenario + stream for ``seed`` and differentially replay."""
    scenario = random_scenario(seed, config)
    deltas = random_update_stream(seed, scenario, steps, config)
    return check_update_stream(scenario, deltas)


# --------------------------------------------------------------- shrink


def shrink_update_stream(
    scenario: Scenario,
    deltas: list[Delta],
    is_failing: Callable[[Scenario, list[Delta]], bool],
    max_rounds: int = 8,
) -> tuple[Scenario, list[Delta]]:
    """Minimize a failing (scenario, stream) pair.

    Round-robin until a fixpoint (or ``max_rounds``): ddmin over the step
    list, then thin each surviving step down fact-by-fact, then ddmin the
    scenario's base facts with the stream pinned (retracts of vanished
    facts normalize to no-ops, so any sub-instance is a valid candidate).
    A predicate crash counts as *not* reproducing, keeping the shrinker
    total.
    """

    def still_fails(candidate: Scenario, stream: list[Delta]) -> bool:
        try:
            return bool(is_failing(candidate, stream))
        except Exception:  # noqa: BLE001 — invalid candidate: not a repro
            return False

    for _ in range(max_rounds):
        before = (len(deltas), sum(
            len(d.inserts) + len(d.retracts) for d in deltas
        ), len(scenario.instance))

        # 1. ddmin over steps.
        granularity = 2
        while len(deltas) >= 2:
            chunk = max(1, len(deltas) // granularity)
            reduced = False
            for offset in range(0, len(deltas), chunk):
                kept = deltas[:offset] + deltas[offset + chunk:]
                if kept and still_fails(scenario, kept):
                    deltas = kept
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
            if not reduced:
                if chunk == 1:
                    break
                granularity = min(len(deltas), granularity * 2)

        # 2. Thin individual steps: drop one inserted/retracted fact at a
        # time as long as the stream still fails.
        for index in range(len(deltas)):
            for attr in ("inserts", "retracts"):
                for fact in sorted(getattr(deltas[index], attr), key=repr):
                    slimmed = replace(
                        deltas[index],
                        **{
                            attr: getattr(deltas[index], attr)
                            - frozenset([fact])
                        },
                    )
                    if slimmed.is_noop():
                        continue
                    candidate = (
                        deltas[:index] + [slimmed] + deltas[index + 1:]
                    )
                    if still_fails(scenario, candidate):
                        deltas = candidate

        # 3. ddmin the base instance with the stream pinned.
        facts = sorted(scenario.instance, key=repr)
        granularity = 2
        while len(facts) >= 2:
            chunk = max(1, len(facts) // granularity)
            reduced = False
            for offset in range(0, len(facts), chunk):
                kept = facts[:offset] + facts[offset + chunk:]
                candidate = scenario.with_instance(Instance(kept))
                if still_fails(candidate, deltas):
                    facts = kept
                    scenario = candidate
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
            if not reduced:
                if chunk == 1:
                    break
                granularity = min(len(facts), granularity * 2)

        after = (len(deltas), sum(
            len(d.inserts) + len(d.retracts) for d in deltas
        ), len(scenario.instance))
        if after == before:
            break
    return scenario, deltas


# ------------------------------------------------------------- campaign


def _update_worker(args: tuple) -> tuple[int, list[str]]:
    seed, config, steps = args
    return seed, check_update_seed(seed, config, steps)


def _iter_update_reports(
    seeds: Iterable[int], config: FuzzConfig, steps: int, jobs: int
) -> Iterable[tuple[int, list[str]]]:
    seeds = list(seeds)
    if jobs > 1:
        try:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # spawn, not fork — same rationale as the main campaign pool.
            with ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=multiprocessing.get_context("spawn"),
            ) as pool:
                yield from pool.map(
                    _update_worker,
                    [(seed, config, steps) for seed in seeds],
                    chunksize=max(1, len(seeds) // (jobs * 4) or 1),
                )
                return
        except Exception:  # pool unavailable: degrade to sequential
            pass
    for seed in seeds:
        yield _update_worker((seed, config, steps))


def run_update_fuzz(
    seeds: int,
    start: int = 0,
    steps: int = 20,
    config: FuzzConfig = DEFAULT_CONFIG,
    jobs: int = 1,
    shrink: bool = False,
    corpus_dir: str | None = None,
    log: Callable[[str], None] | None = None,
) -> FuzzSummary:
    """An update-workload campaign over ``seeds`` consecutive seeds."""
    emit = log or (lambda message: None)
    summary = FuzzSummary(seeds=seeds, start=start)
    started = time.perf_counter()
    done = 0
    seen: set[int] = set()
    for seed, problems in _iter_update_reports(
        range(start, start + seeds), config, steps, jobs
    ):
        if seed in seen:  # pool died mid-iteration; sequential pass repeats
            continue
        seen.add(seed)
        done += 1
        if done % 50 == 0:
            emit(
                f"... {done}/{seeds} update seeds, "
                f"{len(summary.failures)} failure(s)"
            )
        if not problems:
            continue
        scenario = random_scenario(seed, config)
        deltas = random_update_stream(seed, scenario, steps, config)
        failure = FuzzFailure(
            seed=seed,
            discrepancies=problems,
            scenario_text=render_update_scenario(scenario, deltas),
        )
        emit(f"FAIL update seed={seed}: " + "; ".join(problems))
        if shrink:
            scenario, deltas = shrink_update_stream(
                scenario,
                deltas,
                lambda sc, ds: bool(check_update_stream(sc, ds)),
            )
            failure.shrunk_text = render_update_scenario(scenario, deltas)
            emit(
                f"  shrunk to {len(scenario.instance)} fact(s), "
                f"{len(deltas)} step(s)"
            )
        if corpus_dir is not None:
            path = save_update_repro(
                scenario, deltas, corpus_dir, name=f"update-seed-{seed}"
            )
            failure.repro_path = str(path)
            emit(f"  repro written to {path}")
        summary.failures.append(failure)
    summary.seconds = time.perf_counter() - started
    return summary


def replay_update_corpus(directory: str | Path) -> list[tuple[Path, list[str]]]:
    """Replay every saved update repro; a regression returns problems."""
    return [
        (path, check_update_stream(scenario, deltas))
        for path, scenario, deltas in load_update_corpus(directory)
    ]
