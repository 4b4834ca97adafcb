"""The segmentary engine (Sections 6.4–6.5).

Query answering in two phases:

- the **exchange phase** (query-independent, PTIME): chase, violations,
  support closures, safe/suspect split, violation clusters, influences —
  everything in :mod:`repro.xr.envelope`;
- the **query phase**: ground the (rewritten) query over the quasi-solution
  to obtain candidate answers; accept immediately those with an all-safe
  support set; group the rest by *signature* (the set of violation clusters
  whose influences meet their supports); merge signature groups that share
  a cluster into *families*, and decide each family on one solver
  (:func:`~repro.asp.reasoning.decide_family`): the repair program
  restricted to the family's focus, with safe facts represented by
  *true*, plus the query's candidates as goals.

Many small hard problems instead of one large one (Theorem 4).

Because distinct clusters are pairwise-independent (Definition 8 /
Propositions 5–6), the families are too: the query phase *prepares* all
of them first, then solves the batch in process through the
:mod:`repro.runtime` executor.  A family's repair part does not depend
on the query, so its engine is translated once and kept in the
cross-query cache (:class:`~repro.runtime.SignatureProgramCache`) for
every later query and mode; the cache's answer layers, keyed per
signature, make repeated queries over a warm engine skip solving
entirely.  Cached and uncached runs return identical answers.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Container

from repro.dependencies.mapping import SchemaMapping
from repro.obs.metrics import DEFAULT_TIME_BUCKETS
from repro.obs.recorder import NOOP_RECORDER, Recorder
from repro.reduction.reduce import ReducedMapping, reduce_mapping
from repro.relational.instance import Fact, Instance, fact_order
from repro.relational.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.runtime.budget import NO_BUDGET, SolveBudget, SolveBudgetExceeded
from repro.runtime.cache import SignatureProgramCache, decision_key, program_key
from repro.runtime.executor import SequentialExecutor, SolveTask
from repro.runtime.heap import long_lived_build
from repro.xr.envelope import EnvelopeAnalysis, analyze_envelopes
from repro.xr.exchange import ExchangeData, build_exchange_data
from repro.xr.program import (
    FamilyEngine,
    build_family_program,
    build_xr_program,
    family_query_part,
)
from repro.xr.queries import answers_from_facts, ground_query


@dataclass
class QueryPhaseStats:
    """Diagnostics from one :meth:`SegmentaryEngine.answer` call.

    Built locally during the call and published to
    ``engine.last_query_stats`` in a single assignment at the end, so
    concurrent readers never observe a half-filled object.
    """

    candidates: int = 0
    safe_candidates: int = 0
    signatures: int = 0
    programs_solved: int = 0
    largest_program_atoms: int = 0
    total_rules: int = 0
    # Wall-clock: the whole query phase, the program-build portion (group
    # resolution including cache probes and program construction), the
    # solve portion, and each dispatched program individually (executor
    # order).
    seconds: float = 0.0
    build_seconds: float = 0.0
    solve_seconds: float = 0.0
    program_seconds: list[float] = field(default_factory=list)
    # Cache observability: program-level hits/misses and per-candidate
    # decision-memo hits/misses, for this query only.
    cache_hits: int = 0
    cache_misses: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    # The SatSolver statistics summed over every program solved by this
    # call.
    solver_stats: dict[str, int] = field(default_factory=dict)
    # Resource governance: groups cut off by the budget (their candidates
    # are *unknown*, listed below as answer tuples) and whether any
    # degradation happened at all.  With no budget configured these stay
    # at their defaults.
    timeouts: int = 0
    degraded: bool = False
    unknown_candidates: set[tuple] = field(default_factory=set)
    # Family observability: how many cluster families were solved, how
    # many candidates those families covered, level-0 assumption-core
    # skips (candidates decided without search), and clauses carried
    # across candidates (learned clauses + loop formulas + steering, summed
    # over family engines).
    families_solved: int = 0
    family_candidates: int = 0
    core_skips: int = 0
    carried_clauses: int = 0
    # Family engines: translated for this query, and taken from the
    # cache's engine store instead.
    engines_built: int = 0
    engine_reuses: int = 0

    def copy(self) -> "QueryPhaseStats":
        """An independent deep copy (no shared mutable containers).

        ``engine.last_query_stats`` hands out copies built with this, so
        a caller mutating the object it got back — or holding it across a
        later query — can never alias the engine's own snapshot.
        """
        return replace(
            self,
            program_seconds=list(self.program_seconds),
            solver_stats=dict(self.solver_stats),
            unknown_candidates=set(self.unknown_candidates),
        )


@dataclass
class ExchangePhaseStats:
    """Diagnostics from the exchange phase."""

    seconds: float = 0.0
    source_facts: int = 0
    chased_facts: int = 0
    groundings: int = 0
    violations: int = 0
    clusters: int = 0
    suspect_source_facts: int = 0
    safe_source_facts: int = 0


@dataclass
class _SignatureGroup:
    """One signature group's work unit in the query phase."""

    key: tuple
    signature: frozenset[int]
    # Candidate -> decision-memo key, for the candidates the solver decides.
    decision_keys: dict[Fact, frozenset]
    # Group candidates accepted before solving: program-cache hits and
    # memo hits.
    accepted_so_far: set[Fact]
    # Candidates the caches could not decide; they ride into the family
    # program, which fills in the two fields below.
    unresolved: list[Fact] = field(default_factory=list)
    # This group's own trivially-certain candidates (accepted without
    # search), and the query atoms it sends to the family solver.
    trivially_certain: set[Fact] = field(default_factory=set)
    solve_atoms: dict[Fact, int] = field(default_factory=dict)


@dataclass
class _FamilyBatch:
    """One family's solve: its member groups and the engine's store key
    and checkout epoch (for :meth:`SignatureProgramCache.return_engine`)."""

    members: list[_SignatureGroup]
    family: FamilyEngine
    key: tuple
    epoch: int


def _merge_by_shared_clusters(
    groups: list[_SignatureGroup],
) -> dict[int, list[_SignatureGroup]]:
    """Groups keyed by family root: two groups share a family when their
    signatures share a violation cluster, transitively (union-find over
    cluster ids)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for group in groups:
        ids = sorted(group.signature)
        for cluster_id in ids:
            parent.setdefault(cluster_id, cluster_id)
        anchor = find(ids[0])
        for cluster_id in ids[1:]:
            parent[find(cluster_id)] = anchor

    families: dict[int, list[_SignatureGroup]] = {}
    for group in groups:
        families.setdefault(find(min(group.signature)), []).append(group)
    return families


class SegmentaryEngine:
    """XR-Certain query answering with an exchange phase and per-family
    query programs.

    Accepts any ``glav+(wa-glav, egd)`` mapping (reduced internally).  Call
    :meth:`exchange` once (or let the first :meth:`answer` trigger it), then
    answer any number of queries against the materialized exchange state.

    Runtime knobs (all answer-neutral — they change wall-clock time only):

    - ``executor``: a :class:`~repro.runtime.SequentialExecutor` (or
      subclass) to solve with instead of a private one — the seam tests
      use to inject budget cutoffs;
    - ``cache``: ``True`` (default) for a private cross-query cache, a
      :class:`~repro.runtime.SignatureProgramCache` instance to share one,
      or ``False`` to disable caching.

    Resource governance (``budget``, a :class:`~repro.runtime.SolveBudget`)
    is the one knob that can change *what* is answered: a candidate the
    budget cuts off before its verdict is reported as **unknown** — with
    ``allow_partial=True`` such candidates are excluded from certain
    answers (sound under-approximation), conservatively included in
    possible answers (sound over-approximation), and listed in
    ``stats.unknown_candidates``; with ``allow_partial=False`` (the
    default) the call raises :class:`~repro.runtime.SolveBudgetExceeded`.
    With no budget configured, answers are bit-identical to an unbudgeted
    engine.

    The engine is a context manager; ``with SegmentaryEngine(...) as e:``
    closes the executor it created.  An executor *passed in* by the
    caller is never closed by the engine; the caller owns it.
    """

    def __init__(
        self,
        mapping: SchemaMapping | ReducedMapping,
        instance: Instance,
        encoding: str = "repair",
        executor: SequentialExecutor | None = None,
        cache: bool | SignatureProgramCache = True,
        budget: SolveBudget | None = None,
        obs: Recorder | None = None,
    ):
        if isinstance(mapping, ReducedMapping):
            self.reduced = mapping
        else:
            self.reduced = reduce_mapping(mapping)
        self.instance = instance
        self.encoding = encoding
        self.budget = budget if budget is not None else NO_BUDGET
        self.obs = obs if obs is not None else NOOP_RECORDER
        self._owns_executor = executor is None
        self.executor = SequentialExecutor() if executor is None else executor
        if self._owns_executor and self.obs.metrics.enabled:
            # Only an executor this engine created gets its metrics hook;
            # one passed in by the caller is left untouched.
            self.executor.metrics = self.obs.metrics
        if cache is True:
            self.cache: SignatureProgramCache | None = SignatureProgramCache()
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache
        self.data: ExchangeData | None = None
        self.analysis: EnvelopeAnalysis | None = None
        self.exchange_stats = ExchangePhaseStats()
        self._last_query_stats = QueryPhaseStats()
        # Guards the one-time exchange phase: concurrent first queries on
        # a shared engine (the serving tier) must not both materialize.
        self._exchange_lock = threading.Lock()

    @property
    def last_query_stats(self) -> QueryPhaseStats:
        """Diagnostics of the most recent query, as an independent copy.

        Every read returns a fresh deep copy, so two readers can never
        corrupt each other (or the engine) by mutating what they got.
        """
        return self._last_query_stats.copy()

    @last_query_stats.setter
    def last_query_stats(self, stats: QueryPhaseStats) -> None:
        self._last_query_stats = stats.copy()

    def close(self) -> None:
        """Release the engine's solve executor if the engine created it.

        Every solve runs in the calling process, so this closes no pool
        and stops no worker; an executor the caller passed in is left
        to the caller.  The exchange state stays readable.  Nothing is
        unfrozen: the exchange sits in the collector's permanent
        generation (:func:`~repro.runtime.heap.long_lived_build`), and
        reference counting frees it once the engine is dropped.
        """
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "SegmentaryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------ exchange phase

    def exchange(self) -> ExchangePhaseStats:
        """Run the query-independent exchange phase; idempotent.

        Thread-safe: concurrent callers serialize on a lock and exactly
        one materializes; the rest return the published stats.  ``data``
        and ``analysis`` are assigned only after they are fully built, so
        a reader that saw ``analysis is not None`` sees complete state.
        """
        if self.analysis is not None:
            return self.exchange_stats
        with self._exchange_lock:
            return self._exchange_locked()

    def _exchange_locked(self) -> ExchangePhaseStats:
        if self.analysis is not None:
            return self.exchange_stats
        tracer, metrics = self.obs.tracer, self.obs.metrics
        started = time.perf_counter()
        # The exchange is built once and read for the engine's lifetime:
        # build it with the cyclic collector paused, then freeze it so no
        # later full collection walks it again (repro.runtime.heap).
        with tracer.span("exchange"), long_lived_build():
            data = build_exchange_data(
                self.reduced.gav, self.instance, obs=self.obs
            )
            with tracer.span("exchange.envelope"):
                analysis = analyze_envelopes(data)
        self.exchange_stats = ExchangePhaseStats(
            seconds=time.perf_counter() - started,
            source_facts=len(self.instance),
            chased_facts=len(data.chased),
            groundings=len(data.groundings),
            violations=len(data.violations),
            clusters=len(analysis.clusters),
            suspect_source_facts=len(analysis.suspect_source),
            safe_source_facts=len(analysis.safe_source),
        )
        # Publish only once everything (stats included) is complete: the
        # unlocked fast path above keys on `analysis is not None`.
        self.data = data
        self.analysis = analysis
        if metrics.enabled:
            metrics.inc(
                "exchange_clusters_total", self.exchange_stats.clusters
            )
            metrics.inc(
                "exchange_suspect_source_facts_total",
                self.exchange_stats.suspect_source_facts,
            )
            metrics.inc(
                "exchange_safe_source_facts_total",
                self.exchange_stats.safe_source_facts,
            )
        return self.exchange_stats

    def update_session(self):
        """An :class:`~repro.incremental.UpdateSession` over this engine.

        Runs the exchange phase if needed, then returns a session that
        maintains this engine's exchange state (data, analysis, cache) in
        place: after each applied delta the engine answers queries against
        the updated instance without a from-scratch re-exchange.
        """
        self.exchange()
        from repro.incremental import UpdateSession

        assert self.data is not None
        return UpdateSession(
            self.data,
            analysis=self.analysis,
            cache=self.cache,
            obs=self.obs,
            engine=self,
        )

    def refresh_exchange_stats(self) -> None:
        """Re-derive :attr:`exchange_stats` counts from the current state
        (called by an update session after each delta; timings are kept).

        Copy-on-publish: a fresh stats object is built and swapped in
        with one assignment, so a concurrent reader (a ``/metrics`` or
        ``/healthz`` scrape overlapping an applied delta) sees either the
        old snapshot or the new one in full — never a half-updated mix.
        """
        if self.data is None or self.analysis is None:
            return
        self.exchange_stats = ExchangePhaseStats(
            seconds=self.exchange_stats.seconds,
            source_facts=len(self.instance),
            chased_facts=len(self.data.chased),
            groundings=len(self.data.groundings),
            violations=len(self.data.violations),
            clusters=len(self.analysis.clusters),
            suspect_source_facts=len(self.analysis.suspect_source),
            safe_source_facts=len(self.analysis.safe_source),
        )

    # --------------------------------------------------------- query phase

    def answer(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        allow_partial: bool = False,
        budget: SolveBudget | None = None,
    ) -> set[tuple]:
        """The XR-Certain answers to ``query`` (a set of constant tuples)."""
        answers, _stats = self.answer_with_stats(
            query, mode="certain", allow_partial=allow_partial, budget=budget
        )
        return answers

    def possible_answers(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        allow_partial: bool = False,
        budget: SolveBudget | None = None,
    ) -> set[tuple]:
        """The XR-Possible answers: tuples holding in *some* XR-solution.

        Decided with the same family decomposition: by cluster
        independence (Definition 8), a candidate holds in some XR-solution
        iff it holds in some combination of repairs of its signature's
        clusters, i.e. iff its family program answers bravely.
        """
        answers, _stats = self.answer_with_stats(
            query, mode="possible", allow_partial=allow_partial, budget=budget
        )
        return answers

    def answer_with_stats(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        mode: str = "certain",
        allow_partial: bool = False,
        budget: SolveBudget | None = None,
    ) -> tuple[set[tuple], QueryPhaseStats]:
        """Answer ``query`` and return ``(answers, stats)``.

        The stats object is freshly built per call (and also published as
        ``self.last_query_stats``); callers holding it never see it mutate
        under a later query.

        When the engine's budget cuts a family off, ``allow_partial``
        decides the behavior:
        ``True`` degrades gracefully — the family's undecided
        candidates are reported in ``stats.unknown_candidates``, excluded
        from certain answers and conservatively included in possible
        answers, and never written to the caches — while ``False`` raises
        :class:`~repro.runtime.SolveBudgetExceeded`.  Degraded certain
        answers are always a subset of the exact ones, degraded possible
        answers a superset.
        """
        self.exchange()
        assert self.data is not None and self.analysis is not None
        started = time.perf_counter()
        data, analysis = self.data, self.analysis
        if budget is None:
            # Per-call override absent: the engine's configured budget.
            # The serving tier passes one per request so concurrent
            # deadlines never share (or mutate) engine state.
            budget = self.budget
        stats = QueryPhaseStats()
        clock = budget.started()  # None unless a deadline is set
        unknown: set[Fact] = set()
        tracer, metrics = self.obs.tracer, self.obs.metrics

        with tracer.span("query", mode=mode) as query_span:
            with tracer.span("query.ground"):
                rewritten = self.reduced.rewrite(query)
                groundings = ground_query(rewritten, data)

                # Group support sets per candidate fact.
                supports_by_candidate: dict[Fact, list[tuple[Fact, ...]]] = {}
                for candidate, support in groundings:
                    supports_by_candidate.setdefault(candidate, []).append(
                        support
                    )
                stats.candidates = len(supports_by_candidate)

                accepted: set[Fact] = set()
                unsafe: list[Fact] = []
                for candidate, supports in supports_by_candidate.items():
                    if any(
                        all(analysis.is_safe_fact(fact) for fact in support)
                        for support in supports
                    ):
                        # An all-safe support set: certain.
                        accepted.add(candidate)
                    else:
                        unsafe.append(candidate)
                # The join yields rows in hash order; the family programs
                # (rule order, atom numbering) see the unsafe candidates
                # and their supports in canonical order instead, so they
                # are the same under every hash seed.
                id_of = data.fact_ids.__getitem__
                by_signature: dict[frozenset[int], list[Fact]] = {}
                for candidate in sorted(unsafe, key=fact_order):
                    supports = supports_by_candidate[candidate]
                    supports.sort(
                        key=lambda support: tuple(map(id_of, support))
                    )
                    signature = analysis.signature(
                        {fact for support in supports for fact in support}
                    )
                    if not signature:
                        raise RuntimeError(
                            f"unsafe candidate {candidate!r} with empty "
                            "signature: exchange-phase invariant violated"
                        )
                    by_signature.setdefault(signature, []).append(candidate)
                stats.safe_candidates = len(accepted)
                stats.signatures = len(by_signature)

            # A view over ``safe_ids``, not a copy: a copy would cost the
            # whole safe chase on every query.
            safe_facts = analysis.safe_facts

            # Build every still-undecided family program first, then solve
            # the whole batch through the executor (the programs are
            # pairwise independent, so any execution order or interleaving
            # is valid).
            pending: list[_SignatureGroup] = []
            family_batches: list[_FamilyBatch] = []
            tasks: list[SolveTask] = []
            build_started = time.perf_counter()
            with tracer.span("query.build"):
                for signature, candidates in by_signature.items():
                    if clock is not None and clock.expired():
                        # Deadline passed during program construction:
                        # everything still unresolved is unknown — never
                        # silently dropped, never fabricated.
                        if not allow_partial:
                            raise SolveBudgetExceeded(
                                "query deadline exceeded while building "
                                "signature programs"
                            )
                        stats.timeouts += 1
                        unknown.update(candidates)
                        continue
                    group = self._resolve_group(
                        signature, candidates, supports_by_candidate,
                        safe_facts, mode, stats,
                    )
                    accepted |= group.accepted_so_far
                    if group.unresolved:
                        pending.append(group)
                    else:
                        self._finalize_group(group, set(), mode)
                if pending:
                    family_batches, tasks = self._assemble_families(
                        pending, supports_by_candidate, mode, stats,
                        accepted, unknown, clock, allow_partial, budget,
                    )
            stats.build_seconds = time.perf_counter() - build_started

            if tasks:
                with tracer.span("query.solve"):
                    outcomes = self.executor.run(
                        tasks, deadline=clock, tracer=tracer
                    )
                    self._handle_family_outcomes(
                        family_batches, outcomes, mode, stats,
                        accepted, unknown, allow_partial, metrics,
                    )

            if unknown:
                stats.degraded = True
                stats.unknown_candidates = answers_from_facts(unknown)
                if mode == "possible":
                    # Conservative over-approximation: a candidate we
                    # could not decide might hold in some XR-solution, so
                    # possible answers must include it (exact-possible ⊆
                    # degraded).
                    accepted |= unknown
            query_span.count("candidates", stats.candidates)
            query_span.count("signatures", stats.signatures)
            query_span.count("programs_solved", stats.programs_solved)
        stats.seconds = time.perf_counter() - started
        if metrics.enabled:
            self._record_query_metrics(metrics, stats)
        # Single-assignment publication: the engine keeps its own deep
        # copy, and the caller gets the local object — neither can mutate
        # the other's view afterwards.
        self._last_query_stats = stats.copy()
        return answers_from_facts(accepted), stats

    def _handle_family_outcomes(
        self,
        family_batches: list[_FamilyBatch],
        outcomes,
        mode: str,
        stats: QueryPhaseStats,
        accepted: set[Fact],
        unknown: set[Fact],
        allow_partial: bool,
        metrics,
    ) -> None:
        """Fold family solve outcomes into the answer state.

        A family outcome may be *partial* (``status="timeout"`` with
        verdicts attached): every decided candidate keeps its exact
        verdict, only the ``undecided`` remainder degrades to unknown —
        and a member group is cached only when every one of its
        candidates got a verdict, so the caches never hold half-truths.
        A family engine goes back to the store only after a clean solve;
        one a budget cut is dropped.
        """
        for batch, outcome in zip(family_batches, outcomes):
            members = batch.members
            family_size = sum(len(m.solve_atoms) for m in members)
            if outcome.ok and self.cache is not None:
                self.cache.return_engine(batch.key, batch.family, batch.epoch)
            if not outcome.ok and outcome.decided is None:
                # The batch deadline passed before the family started:
                # the whole family is unknown.
                if not allow_partial:
                    raise SolveBudgetExceeded(
                        f"family solve {outcome.status}: "
                        f"{family_size} candidate(s) undecided"
                    )
                stats.timeouts += 1
                for member in members:
                    unknown.update(member.solve_atoms)
                continue
            if outcome.decided is None:
                raise RuntimeError("a family program has no stable model")
            if outcome.undecided and not allow_partial:
                raise SolveBudgetExceeded(
                    f"family solve {outcome.status}: "
                    f"{len(outcome.undecided)} of {family_size} "
                    "candidate(s) undecided"
                )
            stats.programs_solved += 1
            stats.families_solved += 1
            stats.family_candidates += family_size
            stats.program_seconds.append(outcome.seconds)
            stats.solve_seconds += outcome.seconds
            if metrics.enabled:
                metrics.histogram(
                    "solve_seconds", DEFAULT_TIME_BUCKETS
                ).observe(outcome.seconds)
            for key, value in outcome.solver_stats.items():
                stats.solver_stats[key] = (
                    stats.solver_stats.get(key, 0) + value
                )
            stats.core_skips += outcome.solver_stats.get("core_skips", 0)
            stats.carried_clauses += outcome.solver_stats.get(
                "carried_clauses", 0
            )
            if outcome.undecided:
                stats.timeouts += 1
            for member in members:
                newly = {
                    fact
                    for fact, atom_id in member.solve_atoms.items()
                    if atom_id in outcome.decided
                }
                accepted |= newly
                member_unknown = {
                    fact
                    for fact, atom_id in member.solve_atoms.items()
                    if atom_id in outcome.undecided
                }
                if member_unknown:
                    # Partially decided member: its exact verdicts count
                    # toward the answer, but the caches get nothing (a
                    # cache entry must cover the whole group).
                    unknown.update(member_unknown)
                else:
                    self._finalize_group(member, newly, mode)

    @staticmethod
    def _record_query_metrics(metrics, stats: QueryPhaseStats) -> None:
        """Fold one query phase's deterministic counters into ``metrics``."""
        metrics.inc("queries_total")
        metrics.inc("query_candidates_total", stats.candidates)
        metrics.inc("query_safe_candidates_total", stats.safe_candidates)
        metrics.inc("query_signatures_total", stats.signatures)
        metrics.inc("query_programs_solved_total", stats.programs_solved)
        metrics.inc("query_ground_rules_total", stats.total_rules)
        metrics.inc("cache_program_hits_total", stats.cache_hits)
        metrics.inc("cache_program_misses_total", stats.cache_misses)
        metrics.inc("cache_memo_hits_total", stats.memo_hits)
        metrics.inc("cache_memo_misses_total", stats.memo_misses)
        metrics.inc("query_timeouts_total", stats.timeouts)
        metrics.inc("query_families_solved_total", stats.families_solved)
        metrics.inc("query_family_candidates_total", stats.family_candidates)
        metrics.inc("solve_core_skips_total", stats.core_skips)
        metrics.inc("solve_carried_clauses_total", stats.carried_clauses)
        metrics.inc("solve_engines_built_total", stats.engines_built)
        metrics.inc("solve_engine_reuses_total", stats.engine_reuses)
        metrics.inc(
            "query_unknown_candidates_total", len(stats.unknown_candidates)
        )
        if stats.degraded:
            metrics.inc("budget_degraded_queries_total")
        metrics.gauge("query_largest_program_atoms").max(
            stats.largest_program_atoms
        )
        for key, value in stats.solver_stats.items():
            metrics.inc(f"solver_{key}_total", value)

    # ------------------------------------------------------------ helpers

    def _resolve_group(
        self,
        signature: frozenset[int],
        candidates: list[Fact],
        supports_by_candidate: dict[Fact, list[tuple[Fact, ...]]],
        safe_facts: Container[Fact],
        mode: str,
        stats: QueryPhaseStats,
    ) -> _SignatureGroup:
        """Decide what the caches can of a signature group.

        Accepted candidates come back in ``accepted_so_far``; the ones the
        caches could not decide come back in ``unresolved``, for the family
        program built later (:meth:`_assemble_families`).
        """
        group_groundings = [
            (candidate, support)
            for candidate in candidates
            for support in supports_by_candidate[candidate]
        ]
        key = program_key(signature, self.encoding, mode, group_groundings)

        if self.cache is not None:
            cached = self.cache.lookup_program(key)
            if cached is not None:
                stats.cache_hits += 1
                return _SignatureGroup(
                    key=key,
                    signature=signature,
                    decision_keys={},
                    accepted_so_far=set(cached),
                )
            stats.cache_misses += 1

        # Per-candidate decision memo: coarser than the program cache —
        # it ignores the query's name and answer tuple, so structurally
        # identical candidates from *different* queries share verdicts.
        unresolved: list[Fact] = []
        group_accept: set[Fact] = set()
        decision_keys: dict[Fact, frozenset] = {}
        for candidate in candidates:
            memo_key = decision_key(supports_by_candidate[candidate], safe_facts)
            decision_keys[candidate] = memo_key
            verdict = None
            if self.cache is not None:
                verdict = self.cache.lookup_decision(
                    signature, self.encoding, mode, memo_key
                )
            if verdict is None:
                stats.memo_misses += 1
                unresolved.append(candidate)
            else:
                stats.memo_hits += 1
                if verdict:
                    group_accept.add(candidate)

        return _SignatureGroup(
            key=key,
            signature=signature,
            decision_keys={c: decision_keys[c] for c in unresolved},
            accepted_so_far=group_accept,
            unresolved=unresolved,
        )

    def _assemble_families(
        self,
        pending: list[_SignatureGroup],
        supports_by_candidate: dict[Fact, list[tuple[Fact, ...]]],
        mode: str,
        stats: QueryPhaseStats,
        accepted: set[Fact],
        unknown: set[Fact],
        clock,
        allow_partial: bool,
        budget: SolveBudget,
    ) -> tuple[list[_FamilyBatch], list[SolveTask]]:
        """Merge pending signature groups into cluster families, one
        engine (and one :class:`SolveTask`) per family.

        Two groups belong to the same family when their signatures share a
        violation cluster (transitively — union-find over cluster ids).
        A family's engine is its repair part translated once
        (:func:`~repro.xr.program.build_family_program`,
        :class:`~repro.xr.program.FamilyEngine`), checked out of the
        cache's engine store when a query built it before.  This query's
        candidates become goals on it
        (:func:`~repro.xr.program.family_query_part`); every member keeps
        only its **own** trivially-certain candidates — a family-wide set
        in a member's cache entry would leak foreign facts into warm
        hits.  A family is one task, so its candidates share one solver's
        learned clauses.
        """
        assert self.analysis is not None and self.data is not None
        analysis, data = self.analysis, self.data

        families = _merge_by_shared_clusters(pending)

        family_batches: list[_FamilyBatch] = []
        tasks: list[SolveTask] = []
        for root in sorted(families):
            members = families[root]
            if clock is not None and clock.expired():
                if not allow_partial:
                    raise SolveBudgetExceeded(
                        "query deadline exceeded while building family "
                        "programs"
                    )
                stats.timeouts += 1
                for member in members:
                    unknown.update(member.unresolved)
                continue
            cluster_ids = tuple(
                sorted(set().union(*(member.signature for member in members)))
            )
            key = (cluster_ids, self.encoding)
            family, epoch = None, 0
            if self.cache is not None:
                family, epoch = self.cache.checkout_engine(key)
            if family is None:
                # `builder` resolves through this module's globals: one
                # program-builder seam that tests can stub.
                family = FamilyEngine.of(
                    build_family_program(
                        data,
                        clusters=[analysis.cluster(i) for i in cluster_ids],
                        safe_ids=analysis.safe_ids,
                        encoding=self.encoding,
                        builder=build_xr_program,
                    )
                )
                stats.engines_built += 1
            else:
                stats.engine_reuses += 1
            part = family_query_part(
                family,
                data,
                [
                    (candidate, support)
                    for member in members
                    for candidate in member.unresolved
                    for support in supports_by_candidate[candidate]
                ],
                analysis.safe_ids,
            )
            stats.largest_program_atoms = max(
                stats.largest_program_atoms,
                family.repair_atoms + len(part.bodies),
            )
            stats.total_rules += family.repair_rules + part.rules

            batch: list[_SignatureGroup] = []
            goals: set[int] = set()
            for member in members:
                member_trivial = {
                    candidate
                    for candidate in member.unresolved
                    if candidate in part.trivially_certain
                }
                accepted |= member_trivial
                member.trivially_certain = member_trivial
                define_goal = family.engine.define_goal
                member.solve_atoms = {
                    candidate: define_goal(part.bodies[candidate])
                    for candidate in member.unresolved
                    if candidate in part.bodies
                    and candidate not in member_trivial
                }
                if member.solve_atoms:
                    batch.append(member)
                    goals.update(member.solve_atoms.values())
                else:
                    # Fully decided without search (trivially certain or
                    # out of scope): cacheable right now.
                    self._finalize_group(member, set(), mode)
            if not batch:
                if self.cache is not None:
                    self.cache.return_engine(key, family, epoch)
                continue
            family_batches.append(_FamilyBatch(batch, family, key, epoch))
            tasks.append(
                SolveTask(
                    family=family,
                    goal_ids=tuple(sorted(goals)),
                    mode=mode,
                    budget=budget,
                )
            )
        return family_batches, tasks

    def _finalize_group(
        self, group: _SignatureGroup, solver_accepted: set[Fact], mode: str
    ) -> None:
        """Record cache entries once a group's verdicts are complete."""
        if self.cache is None:
            return
        accepted = (
            group.accepted_so_far | solver_accepted | group.trivially_certain
        )
        for candidate, memo_key in group.decision_keys.items():
            self.cache.store_decision(
                group.signature, self.encoding, mode, memo_key,
                candidate in accepted,
            )
        self.cache.store_program(group.key, accepted)
