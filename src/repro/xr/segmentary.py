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

Every candidate past the safety check ends with one :class:`Decision`:
its verdict and where the verdict came from (the cross-query caches, a
trivially-certain support, the family solve, or a budget cutoff).  The
all-safe candidates stay one bulk set.  The answers, the unknown report,
the cache writes, :class:`QueryPhaseStats` and the one budget raise are
all read off the list of decisions and the per-family
:class:`FamilySolve` entries at the end of the call.

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

from repro.dependencies.mapping import SchemaMapping
from repro.obs.metrics import DEFAULT_TIME_BUCKETS
from repro.obs.recorder import NOOP_RECORDER, Recorder
from repro.reduction.reduce import ReducedMapping, reduce_mapping
from repro.relational.instance import Fact, Instance, fact_order
from repro.relational.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.runtime.budget import NO_BUDGET, SolveBudget, SolveBudgetExceeded
from repro.runtime.cache import SignatureProgramCache, decision_key, program_key
from repro.runtime.executor import SequentialExecutor, SolveOutcome, SolveTask
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

#: Where a :class:`Decision`'s verdict came from.
PROGRAM_CACHE = "program-cache"  # the signature group's cached answers
MEMO = "memo"  # the per-candidate decision memo
TRIVIALLY_CERTAIN = "trivially-certain"  # a support safe inside the family
SOLVED = "solved"  # the family solve
CUTOFF = "cutoff"  # the budget cut it off: no verdict


@dataclass(frozen=True, slots=True)
class Decision:
    """How one candidate without an all-safe support was decided.

    ``verdict`` is None (unknown) exactly when ``source`` is
    :data:`CUTOFF`.  ``family`` is the sorted cluster ids of the family
    it went to, None when the caches decided it or the budget cut its
    signature group before resolution; ``memo_key`` is its decision-memo
    key, None when it never reached the memo.
    """

    candidate: Fact
    signature: frozenset[int]
    verdict: bool | None
    source: str
    family: tuple[int, ...] | None = None
    memo_key: frozenset | None = None


@dataclass(slots=True)
class FamilySolve:
    """One family's part in a query: its engine (built for this query or
    checked out of the store at ``epoch``), the size of the program it
    decides, the candidates it sends to the solver as ``(candidate,
    signature, memo key, goal id)``, and the solve's outcome (None when
    no candidate needed one)."""

    cluster_ids: tuple[int, ...]
    engine: FamilyEngine
    epoch: int
    built: bool
    atoms: int
    rules: int
    goals: list[tuple] = field(default_factory=list)
    outcome: SolveOutcome | None = None

    def goal_ids(self) -> tuple[int, ...]:
        return tuple(sorted({goal for *_, goal in self.goals}))

    @property
    def ran(self) -> bool:
        """Whether the solve started (a batch deadline can skip it)."""
        return self.outcome is not None and self.outcome.decided is not None

    def settle(self, outcome: SolveOutcome) -> list[Decision]:
        """Keep ``outcome`` and read the goals' decisions off it: a goal
        the budget cut off (or a solve that never started) is unknown,
        every other verdict is exact."""
        if outcome.ok and outcome.decided is None:
            raise RuntimeError("a family program has no stable model")
        self.outcome = outcome
        decisions = []
        for candidate, signature, memo_key, goal in self.goals:
            cut = outcome.decided is None or goal in outcome.undecided
            verdict = None if cut else goal in outcome.decided
            decisions.append(Decision(
                candidate, signature, verdict, CUTOFF if cut else SOLVED,
                self.cluster_ids, memo_key,
            ))
        return decisions


@dataclass
class QueryPhaseStats:
    """Diagnostics from one :meth:`SegmentaryEngine.answer` call.

    A fold over the call's :class:`Decision` records and
    :class:`FamilySolve` entries (:meth:`fold`), built once at the end of
    the call and published to ``engine.last_query_stats`` in a single
    assignment, so concurrent readers never observe a half-filled object.
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
    # Resource governance: one ``timeouts`` unit per family the budget
    # cut (at assembly, before its solve started, or mid-solve) and per
    # signature group it cut during resolution, before the group had a
    # family.  Their candidates are *unknown*, listed below as answer
    # tuples; ``degraded`` says whether there is any.  With no budget
    # configured these stay at their defaults.
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

    @classmethod
    def fold(
        cls,
        decisions: list[Decision],
        families: list[FamilySolve],
        cached: bool,
        **fields,
    ) -> "QueryPhaseStats":
        """The stats of one call from its decisions and family entries
        (``cached``: whether the engine has a cache to miss); ``fields``
        carries what the records do not hold (candidate counts, timings).
        """
        solved = [family for family in families if family.ran]
        solver_stats: dict[str, int] = {}
        for family in solved:
            for key, value in family.outcome.solver_stats.items():
                solver_stats[key] = solver_stats.get(key, 0) + value
        memo_hits = sum(d.source == MEMO for d in decisions)
        memo_probes = sum(d.memo_key is not None for d in decisions)
        unknown = {d.candidate for d in decisions if d.verdict is None}
        built = sum(family.built for family in families)
        return cls(
            programs_solved=len(solved),
            families_solved=len(solved),
            family_candidates=sum(len(family.goals) for family in solved),
            largest_program_atoms=max(
                (family.atoms for family in families), default=0
            ),
            total_rules=sum(family.rules for family in families),
            solve_seconds=sum(family.outcome.seconds for family in solved),
            program_seconds=[family.outcome.seconds for family in solved],
            cache_hits=len(
                {d.signature for d in decisions if d.source == PROGRAM_CACHE}
            ),
            # Every group that missed the program cache probed the memo.
            cache_misses=len(
                {d.signature for d in decisions if d.memo_key is not None}
            ) if cached else 0,
            memo_hits=memo_hits,
            memo_misses=memo_probes - memo_hits,
            solver_stats=solver_stats,
            core_skips=solver_stats.get("core_skips", 0),
            carried_clauses=solver_stats.get("carried_clauses", 0),
            # One unit per cut family, or per group cut before it had one.
            timeouts=len(
                {d.family or d.signature for d in decisions if d.source == CUTOFF}
            ),
            degraded=bool(unknown),
            unknown_candidates=answers_from_facts(unknown),
            engines_built=built,
            engine_reuses=len(families) - built,
            **fields,
        )

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

    @classmethod
    def of(
        cls, seconds: float, instance: Instance, data: ExchangeData,
        analysis: EnvelopeAnalysis,
    ) -> "ExchangePhaseStats":
        """The counts of an exchange state, with its build time."""
        return cls(
            seconds=seconds, source_facts=len(instance),
            chased_facts=len(data.chased), groundings=len(data.groundings),
            violations=len(data.violations), clusters=len(analysis.clusters),
            suspect_source_facts=len(analysis.suspect_source),
            safe_source_facts=len(instance) - len(analysis.suspect_source),
        )


def _merge_by_shared_clusters(
    signatures: list[frozenset[int]],
) -> list[list[frozenset[int]]]:
    """The signatures grouped into families, in order of family root: two
    signatures share a family when they share a violation cluster,
    transitively (union-find over cluster ids)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for signature in signatures:
        ids = sorted(signature)
        for cluster_id in ids:
            parent.setdefault(cluster_id, cluster_id)
        anchor = find(ids[0])
        for cluster_id in ids[1:]:
            parent[find(cluster_id)] = anchor

    families: dict[int, list[frozenset[int]]] = {}
    for signature in signatures:
        families.setdefault(find(min(signature)), []).append(signature)
    return [families[root] for root in sorted(families)]


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
        self.exchange_stats = ExchangePhaseStats.of(
            time.perf_counter() - started, self.instance, data, analysis
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
        self.exchange_stats = ExchangePhaseStats.of(
            self.exchange_stats.seconds, self.instance, self.data, self.analysis
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
        answers a superset.  Either way, what was decided exactly is
        cached and every cleanly solved family's engine is kept.
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
        clock = budget.started()  # None unless a deadline is set
        tracer, metrics = self.obs.tracer, self.obs.metrics

        with tracer.span("query", mode=mode) as query_span:
            with tracer.span("query.ground"):
                rewritten = self.reduced.rewrite(query)
                groundings = ground_query(rewritten, data)

                # Group support sets (fact id tuples) per candidate fact.
                supports_by_candidate: dict[Fact, list[tuple[int, ...]]] = {}
                for candidate, support in groundings:
                    supports_by_candidate.setdefault(candidate, []).append(
                        support
                    )

                safe: set[Fact] = set()
                unsafe: list[Fact] = []
                all_safe = analysis.safe_ids.issuperset
                for candidate, supports in supports_by_candidate.items():
                    if any(map(all_safe, supports)):
                        # An all-safe support set: certain.
                        safe.add(candidate)
                    else:
                        unsafe.append(candidate)
                # The join yields rows in hash order; the family programs
                # (rule order, atom numbering) see the unsafe candidates
                # and their supports in canonical order instead, so they
                # are the same under every hash seed.
                by_signature: dict[frozenset[int], list[Fact]] = {}
                for candidate in sorted(unsafe, key=fact_order):
                    supports = supports_by_candidate[candidate]
                    supports.sort()
                    signature = analysis.signature(
                        {fact_id for support in supports for fact_id in support}
                    )
                    if not signature:
                        raise RuntimeError(
                            f"unsafe candidate {candidate!r} with empty "
                            "signature: exchange-phase invariant violated"
                        )
                    by_signature.setdefault(signature, []).append(candidate)

            # Build every still-undecided family program first, then solve
            # the whole batch through the executor (the programs are
            # pairwise independent, so any execution order or interleaving
            # is valid).
            build_started = time.perf_counter()
            with tracer.span("query.build"):
                decisions, pending, program_keys = self._resolve_groups(
                    by_signature, supports_by_candidate, mode, clock
                )
                families = self._assemble_families(
                    pending, supports_by_candidate, clock, decisions
                )
            build_seconds = time.perf_counter() - build_started

            solving = [family for family in families if family.goals]
            if solving:
                tasks = [
                    SolveTask(family.engine, family.goal_ids(), mode, budget)
                    for family in solving
                ]
                with tracer.span("query.solve"):
                    outcomes = self.executor.run(
                        tasks, deadline=clock, tracer=tracer
                    )
                for family, outcome in zip(solving, outcomes):
                    decisions += family.settle(outcome)

            self._write_back(decisions, families, program_keys, mode)
            stats = QueryPhaseStats.fold(
                decisions,
                families,
                cached=self.cache is not None,
                candidates=len(supports_by_candidate),
                safe_candidates=len(safe),
                signatures=len(by_signature),
                build_seconds=build_seconds,
            )
            if stats.degraded and not allow_partial:
                raise SolveBudgetExceeded(
                    f"query budget exceeded: {len(stats.unknown_candidates)} "
                    "candidate(s) undecided"
                )
            # Possible mode conservatively includes the unknowns: one
            # might hold in some XR-solution (exact-possible ⊆ degraded).
            accepted = safe.union(
                d.candidate
                for d in decisions
                if d.verdict or (d.verdict is None and mode == "possible")
            )
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

    @staticmethod
    def _record_query_metrics(metrics, stats: QueryPhaseStats) -> None:
        """Fold one query phase's deterministic counters, and its family
        solve times, into ``metrics``."""
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
        solve_seconds = metrics.histogram("solve_seconds", DEFAULT_TIME_BUCKETS)
        for seconds in stats.program_seconds:
            solve_seconds.observe(seconds)

    # ------------------------------------------------------------ helpers

    def _resolve_groups(
        self,
        by_signature: dict[frozenset[int], list[Fact]],
        supports_by_candidate: dict[Fact, list[tuple[int, ...]]],
        mode: str,
        clock,
    ) -> tuple[list[Decision], dict, dict]:
        """Decide what the caches can of each signature group.

        Returns the decisions reached, the candidates left for the family
        programs (signature -> ``(candidate, memo key)`` pairs), and the
        program-cache key of each group the program cache missed (only
        those get a ``store_program``: a hit's entry is already there).
        A group the deadline reaches first is cut off whole — never
        silently dropped, never fabricated.
        """
        cache, encoding = self.cache, self.encoding
        safe_ids = self.analysis.safe_ids
        decisions: list[Decision] = []
        pending: dict[frozenset[int], list[tuple[Fact, frozenset]]] = {}
        program_keys: dict[frozenset[int], tuple] = {}
        for signature, candidates in by_signature.items():
            if clock is not None and clock.expired():
                decisions.extend(
                    Decision(candidate, signature, None, CUTOFF)
                    for candidate in candidates
                )
                continue
            if cache is not None:
                key = program_key(
                    signature, encoding, mode,
                    [
                        (candidate, support)
                        for candidate in candidates
                        for support in supports_by_candidate[candidate]
                    ],
                )
                cached = cache.lookup_program(key)
                if cached is not None:
                    decisions.extend(
                        Decision(candidate, signature, candidate in cached,
                                 PROGRAM_CACHE)
                        for candidate in candidates
                    )
                    continue
                program_keys[signature] = key
            # Per-candidate decision memo: coarser than the program cache —
            # it ignores the query's name and answer tuple, so structurally
            # identical candidates from *different* queries share verdicts.
            for candidate in candidates:
                memo_key = decision_key(
                    supports_by_candidate[candidate], safe_ids
                )
                verdict = None if cache is None else cache.lookup_decision(
                    signature, encoding, mode, memo_key
                )
                if verdict is None:
                    pending.setdefault(signature, []).append(
                        (candidate, memo_key)
                    )
                else:
                    decisions.append(Decision(
                        candidate, signature, verdict, MEMO, memo_key=memo_key
                    ))
        return decisions, pending, program_keys

    def _assemble_families(
        self,
        pending: dict[frozenset[int], list[tuple[Fact, frozenset]]],
        supports_by_candidate: dict[Fact, list[tuple[int, ...]]],
        clock,
        decisions: list[Decision],
    ) -> list[FamilySolve]:
        """Merge the pending signature groups into cluster families, one
        engine per family, and turn each pending candidate into a goal on
        it (or a decision, appended to ``decisions``).

        Two groups belong to the same family when their signatures share a
        violation cluster (transitively — union-find over cluster ids).
        A family's engine is its repair part translated once
        (:func:`~repro.xr.program.build_family_program`,
        :class:`~repro.xr.program.FamilyEngine`), checked out of the
        cache's engine store when a query built it before.  This query's
        candidates become goals on it
        (:func:`~repro.xr.program.family_query_part`); one with a support
        safe inside the family is certain without search.  A family is
        one solve, so its candidates share one solver's learned clauses.
        """
        analysis, data = self.analysis, self.data
        families: list[FamilySolve] = []
        for signatures in _merge_by_shared_clusters(list(pending)):
            cluster_ids = tuple(sorted(set().union(*signatures)))
            members = [
                (candidate, signature, memo_key)
                for signature in signatures
                for candidate, memo_key in pending[signature]
            ]
            if clock is not None and clock.expired():
                decisions.extend(
                    Decision(candidate, signature, None, CUTOFF, cluster_ids,
                             memo_key)
                    for candidate, signature, memo_key in members
                )
                continue
            key = (cluster_ids, self.encoding)
            engine, epoch = None, 0
            if self.cache is not None:
                engine, epoch = self.cache.checkout_engine(key)
            built = engine is None
            if built:
                # `builder` resolves through this module's globals: one
                # program-builder seam that tests can stub.
                engine = FamilyEngine.of(
                    build_family_program(
                        data,
                        clusters=[analysis.cluster(i) for i in cluster_ids],
                        safe_ids=analysis.safe_ids,
                        encoding=self.encoding,
                        builder=build_xr_program,
                    )
                )
            part = family_query_part(
                engine,
                [
                    (candidate, support)
                    for candidate, _signature, _memo_key in members
                    for support in supports_by_candidate[candidate]
                ],
                analysis.safe_ids,
            )
            family = FamilySolve(
                cluster_ids, engine, epoch, built,
                atoms=engine.repair_atoms + len(part.bodies),
                rules=engine.repair_rules + part.rules,
            )
            families.append(family)
            define_goal = engine.engine.define_goal
            for candidate, signature, memo_key in members:
                if candidate in part.trivially_certain:
                    decisions.append(Decision(
                        candidate, signature, True, TRIVIALLY_CERTAIN,
                        cluster_ids, memo_key,
                    ))
                elif candidate in part.bodies:
                    family.goals.append(
                        (candidate, signature, memo_key,
                         define_goal(part.bodies[candidate]))
                    )
                else:
                    # No support inside the family's scope: no repair
                    # holds it, so the family decides it without a goal.
                    decisions.append(Decision(
                        candidate, signature, False, SOLVED, cluster_ids,
                        memo_key,
                    ))
        return families

    def _write_back(
        self,
        decisions: list[Decision],
        families: list[FamilySolve],
        program_keys: dict,
        mode: str,
    ) -> None:
        """Keep what this call decided exactly.

        A signature group's entries are written only when none of its
        candidates was cut off — a cache entry covers a whole group, and a
        cutoff is a budget artifact, not a verdict; the memo gets the
        verdicts the families reached.  A family engine goes back to the
        store unless the budget cut its solve.
        """
        cache = self.cache
        if cache is None:
            return
        for family in families:
            if family.outcome is None or family.outcome.ok:
                cache.return_engine(
                    (family.cluster_ids, self.encoding), family.engine,
                    family.epoch,
                )
        groups: dict[frozenset[int], list[Decision]] = {}
        for decision in decisions:
            groups.setdefault(decision.signature, []).append(decision)
        for signature, key in program_keys.items():
            group = groups[signature]
            if any(d.source == CUTOFF for d in group):
                continue
            for d in group:
                if d.source in (TRIVIALLY_CERTAIN, SOLVED):
                    cache.store_decision(
                        signature, self.encoding, mode, d.memo_key, d.verdict
                    )
            cache.store_program(key, [d.candidate for d in group if d.verdict])
