"""The monolithic engine (Sections 4–5).

One large disjunctive logic program per query: the full Figure 1 grounding
over the entire instance, plus the query rules, handed to the stable-model
solver for cautious (or, for XR-Possible, brave) reasoning through the same
:func:`~repro.asp.reasoning.decide_family` loop that decides the segmentary
engine's family programs.  As the paper's experiments show, the cost of
the exchange is embedded in every single query — this engine exists both as
the reference implementation of Theorem 2 / Corollary 1 and as the baseline
the segmentary engine is measured against.

Resource governance mirrors the segmentary engine, with a coarser grain:
there is only one program, so when a configured
:class:`~repro.runtime.SolveBudget` cuts its solve off, every candidate
the solve had not decided yet becomes unknown at once; the ones it had
decided keep their exact verdicts.  With ``allow_partial`` the engine
still returns something sound — the accepted answers (an
under-approximation) in certain mode, the accepted plus the unknown ones
(an over-approximation) in possible mode — and lists the undecided
candidates in ``last_stats.unknown_candidates``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.asp.reasoning import decide_family
from repro.dependencies.mapping import SchemaMapping
from repro.obs.recorder import NOOP_RECORDER, Recorder
from repro.reduction.reduce import ReducedMapping, reduce_mapping
from repro.relational.instance import Instance
from repro.relational.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.runtime.budget import NO_BUDGET, SolveBudget, SolveBudgetExceeded
from repro.xr.exchange import build_exchange_data
from repro.xr.program import build_xr_program
from repro.xr.queries import answers_from_facts, ground_query


@dataclass
class MonolithicStats:
    """Size and degradation diagnostics of the last program solved."""

    atoms: int = 0
    rules: int = 0
    candidates: int = 0
    # Budget degradation (empty/False without a configured budget).
    degraded: bool = False
    unknown_candidates: set[tuple] = field(default_factory=set)

    def copy(self) -> "MonolithicStats":
        """An independent deep copy (no shared mutable containers)."""
        return replace(
            self, unknown_candidates=set(self.unknown_candidates)
        )


class MonolithicEngine:
    """XR-Certain query answering with a single program per query.

    Accepts any ``glav+(wa-glav, egd)`` schema mapping; the Theorem 1
    reduction is applied internally.  Every :meth:`answer` call performs the
    full pipeline (reduction output is cached; the chase and the program are
    rebuilt per query — the monolithic cost model of the paper).
    """

    def __init__(
        self,
        mapping: SchemaMapping | ReducedMapping,
        instance: Instance,
        encoding: str = "repair",
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
        self._last_stats = MonolithicStats()

    @property
    def last_stats(self) -> MonolithicStats:
        """Diagnostics of the most recent query, as an independent copy.

        Published in a single assignment per query (never mutated in place
        after publication) and handed out as fresh copies, so a caller
        holding one can never see it change under a later query — and
        can't corrupt the engine's snapshot by mutating it either.
        """
        return self._last_stats.copy()

    @last_stats.setter
    def last_stats(self, stats: MonolithicStats) -> None:
        self._last_stats = stats.copy()

    def answer(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        allow_partial: bool = False,
    ) -> set[tuple]:
        """The XR-Certain answers to ``query`` (a set of constant tuples)."""
        return self._answer(query, mode="certain", allow_partial=allow_partial)

    def possible_answers(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        allow_partial: bool = False,
    ) -> set[tuple]:
        """The XR-Possible answers: tuples holding in *some* XR-solution.

        The brave counterpart of XR-Certain — the union instead of the
        intersection over exchange-repair solutions.
        """
        return self._answer(query, mode="possible", allow_partial=allow_partial)

    def _answer(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        mode: str,
        allow_partial: bool = False,
    ) -> set[tuple]:
        tracer, metrics = self.obs.tracer, self.obs.metrics
        with tracer.span("monolithic", mode=mode):
            with tracer.span("monolithic.build"):
                rewritten = self.reduced.rewrite(query)
                data = build_exchange_data(
                    self.reduced.gav, self.instance, obs=self.obs
                )
                query_groundings = ground_query(rewritten, data)
                xr_program = build_xr_program(
                    data,
                    query_groundings=query_groundings,
                    encoding=self.encoding,
                )

            stats = MonolithicStats(
                atoms=xr_program.program.num_atoms,
                rules=len(xr_program.program),
                candidates=len(xr_program.query_atoms),
            )
            if metrics.enabled:
                metrics.inc("monolithic_programs_total")
                metrics.inc("monolithic_atoms_total", stats.atoms)
                metrics.inc("monolithic_rules_total", stats.rules)
                metrics.inc("monolithic_candidates_total", stats.candidates)

            if not xr_program.query_atoms:
                self._last_stats = stats.copy()
                return set()
            deadline = self.budget.single_solve_deadline()
            with tracer.span("monolithic.solve"):
                verdicts = decide_family(
                    xr_program.program,
                    xr_program.query_atoms.values(),
                    mode="cautious" if mode == "certain" else "possible",
                    deadline=deadline,
                )
            accepted = {
                fact
                for fact, atom_id in xr_program.query_atoms.items()
                if atom_id in verdicts.accepted
            }
            accepted |= xr_program.trivially_certain
            if verdicts.undecided:
                if not allow_partial:
                    self._last_stats = stats.copy()
                    raise SolveBudgetExceeded(
                        "deadline exceeded while solving the XR program"
                    )
                # The solve was cut off: the candidates it decided keep
                # their exact verdicts, the rest are unknown.  Certain mode
                # leaves them out (a sound floor), possible mode takes
                # them in (a sound ceiling).
                unknown = {
                    fact
                    for fact, atom_id in xr_program.query_atoms.items()
                    if atom_id in verdicts.undecided
                } - xr_program.trivially_certain
                stats.degraded = True
                stats.unknown_candidates = answers_from_facts(unknown)
                if metrics.enabled:
                    metrics.inc("budget_degraded_queries_total")
                if mode == "possible":
                    accepted |= unknown
            elif verdicts.no_model:
                # No stable model means no XR-solution; cannot happen
                # because the empty sub-instance always has a solution,
                # but stay defensive.
                raise RuntimeError("the XR program has no stable model")
            self._last_stats = stats.copy()
            return answers_from_facts(accepted)
