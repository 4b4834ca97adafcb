"""Shared exchange computation: quasi-solution, groundings, violations.

Both engines start the same way (for a reduced ``gav+(gav, egd)`` mapping):

- chase the source instance with the tgds only — the **canonical
  quasi-solution** of Definition 2;
- keep the chase's groundings, every tgd instantiation over the chased
  instance — these are the **support sets** of Definition 4;
- enumerate every grounded egd with a satisfied body, and mark as
  **violations** those whose equality fails (for constants-only egds, only
  clashes between two distinct constants count — skolem values stand for
  nulls, which the original chase would simply unify).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter

from repro.chase.batch import (
    ChasePlans,
    _IndexCache,
    chase_insert,
    find_violations_batch,
)
from repro.dependencies.egds import EGD
from repro.obs.recorder import NOOP_RECORDER, Recorder
from repro.dependencies.mapping import SchemaMapping
from repro.dependencies.tgds import TGD
from repro.relational.instance import Fact, Instance, fact_order, sorted_facts
from repro.relational.schema import Schema
from repro.relational.terms import value_order


@dataclass(frozen=True)
class Violation:
    """A grounded egd with satisfied body and a failing equality."""

    egd: EGD
    body_facts: tuple[Fact, ...]
    lhs_value: object
    rhs_value: object

    def __repr__(self) -> str:
        return (
            f"Violation({self.egd.label}: {self.lhs_value!r} ≠ {self.rhs_value!r} "
            f"from {list(self.body_facts)})"
        )


@dataclass
class ExchangeData:
    """The query-independent exchange computation for a gav mapping.

    Besides the fact-level artifacts (chase, groundings, violations), the
    exchange data owns an **interned integer universe**: every chased fact
    gets a dense id, and all adjacency needed by the closures and program
    builders is precomputed as int-keyed arrays — ``groundings_by_head``
    (grounding indexes with the fact as head; support sets flowing
    *backward*), ``occurs_in_body`` (grounding indexes with the fact in
    the body; influence flowing *forward*), and ``violations_by_fact``.
    Downstream hot loops traverse these arrays instead of re-hashing
    :class:`Fact` tuples or rescanning the grounding/violation lists.
    """

    mapping: SchemaMapping
    source_instance: Instance
    chased: Instance  # I ∪ J: source facts plus the canonical quasi-solution
    groundings: list[tuple[TGD, tuple[Fact, ...], Fact]]
    violations: list[Violation]
    # ----------------------------------------------- interned universe
    # fact -> dense id (0-based) and its inverse.
    fact_ids: dict[Fact, int] = field(default_factory=dict)
    facts_by_id: list[Fact] = field(default_factory=list)
    # Per grounding: deduplicated body fact ids (first-occurrence order)
    # and the head fact id.
    grounding_bodies: list[tuple[int, ...]] = field(default_factory=list)
    grounding_heads: list[int] = field(default_factory=list)
    # fact id -> grounding indexes (head side / body side).
    groundings_by_head: list[list[int]] = field(default_factory=list)
    occurs_in_body: list[list[int]] = field(default_factory=list)
    # Per violation: deduplicated body fact ids; fact id -> violation idxs.
    violation_bodies: list[tuple[int, ...]] = field(default_factory=list)
    violations_by_fact: list[list[int]] = field(default_factory=list)
    # fact id -> True iff the fact belongs to a source relation.
    source_id_mask: list[bool] = field(default_factory=list)
    # Memoized per-fact forward closures (influence of a single fact);
    # shared by every program build over this exchange data.
    _influence_cache: dict[int, frozenset[int]] = field(default_factory=dict)
    _source_names: frozenset[str] = field(
        default_factory=frozenset, init=False, repr=False
    )
    # The build's pivot plans and hash indexes over ``chased`` (kept
    # exact by the delta-chase; query grounding reads them too).
    index_cache: _IndexCache = field(default=None, repr=False, compare=False)
    plans: ChasePlans = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._source_names = frozenset(self.mapping.source.names())
        if self.plans is None:  # not built by build_exchange_data
            tgds, egds = self.mapping.all_tgds(), self.mapping.target_egds
            self.plans = ChasePlans(self.source_instance, tgds, egds)
            self.index_cache = _IndexCache(self.chased)

    @property
    def source_facts(self) -> set[Fact]:
        return set(self.source_instance)

    def target_facts(self) -> set[Fact]:
        source_names = self.mapping.source.names()
        return {f for f in self.chased if f.relation not in source_names}

    def quasi_solution(self) -> Instance:
        """The canonical quasi-solution (target restriction of the chase)."""
        return self.chased.restrict(self.mapping.target.names())

    # ------------------------------------------------- interning helpers

    def intern_fact(self, fact: Fact) -> int:
        """The id of ``fact``, extending the universe if it is new.

        Facts outside the chased instance (only seen when callers pass
        hand-built focus/safe sets) get fresh ids with empty adjacency, so
        membership tests against them behave like the old set-of-Fact
        code paths.
        """
        fact_id = self.fact_ids.get(fact)
        if fact_id is None:
            fact_id = len(self.facts_by_id)
            self.fact_ids[fact] = fact_id
            self.facts_by_id.append(fact)
            self.groundings_by_head.append([])
            self.occurs_in_body.append([])
            self.violations_by_fact.append([])
            self.source_id_mask.append(fact.relation in self._source_names)
        return fact_id

    def id_of(self, fact: Fact) -> int | None:
        return self.fact_ids.get(fact)

    def fact_of(self, fact_id: int) -> Fact:
        return self.facts_by_id[fact_id]

    def id_set(self, facts) -> set[int]:
        """Intern a collection of facts into a set of ids."""
        intern = self.intern_fact
        return {intern(fact) for fact in facts}

    def violation_body_ids(self, violation: Violation) -> tuple[int, ...]:
        """The deduplicated body fact ids of one violation."""
        return tuple(
            dict.fromkeys(self.intern_fact(f) for f in violation.body_facts)
        )

    def update_session(self, analysis=None, cache=None, obs=None):
        """An :class:`~repro.incremental.UpdateSession` over this data.

        Convenience constructor; see :mod:`repro.incremental` for the
        delta-chase and live cluster-maintenance machinery behind it.
        """
        from repro.incremental import UpdateSession

        return UpdateSession(self, analysis=analysis, cache=cache, obs=obs)

    def influence_ids_of(self, fact_id: int) -> frozenset[int]:
        """Forward closure of one fact through support sets, memoized.

        The per-suspect side chases of the repair program and the
        envelope influences both need these; caching them means each
        fact's closure is walked at most once per exchange.
        """
        cached = self._influence_cache.get(fact_id)
        if cached is not None:
            return cached
        influenced = {fact_id}
        frontier = [fact_id]
        occurs = self.occurs_in_body
        heads = self.grounding_heads
        while frontier:
            current = frontier.pop()
            for index in occurs[current]:
                head_id = heads[index]
                if head_id not in influenced:
                    influenced.add(head_id)
                    frontier.append(head_id)
        result = frozenset(influenced)
        self._influence_cache[fact_id] = result
        return result


def violation_key(
    violation: Violation,
) -> tuple[str, frozenset[Fact], frozenset]:
    """The canonical identity of a violation, independent of orientation.

    Symmetric bindings of one grounded egd (swapping the roles of the two
    offending values) describe the same violation; the key canonicalizes
    them so the exchange build and the incremental violation
    maintenance of :mod:`repro.incremental` dedup identically.
    """
    if violation.egd.symmetric:
        # Canonicalize the two orientations of a symmetric egd
        # (e.g. EQ(a, b) vs EQ(b, a)) into one violation.
        key_body = frozenset(
            Fact(fact.relation, tuple(sorted(fact.args, key=value_order)))
            for fact in violation.body_facts
        )
    else:
        key_body = frozenset(violation.body_facts)
    return (
        violation.egd.label,
        key_body,
        frozenset((violation.lhs_value, violation.rhs_value)),
    )


def violation_order(violation: Violation) -> tuple:
    """A sort key for violations: egd label, the two offending values,
    then the body facts, under :func:`value_order` / :func:`fact_order`."""
    return (
        violation.egd.label,
        value_order(violation.lhs_value),
        value_order(violation.rhs_value),
        tuple(map(fact_order, violation.body_facts)),
    )


def canonicalize_violations(violations: list[Violation]) -> list[Violation]:
    """One canonical representative per :func:`violation_key`, sorted.

    Symmetric egds ground in two orientations and different evaluation
    strategies encounter them in different orders; keeping the least
    representative under :func:`violation_order` (instead of the first
    encountered) and sorting the result by it makes the violation list a
    pure function of the violation *set* — the keystone of
    batch-vs-reference bit-identity.
    """
    best: dict[tuple, tuple[tuple, Violation]] = {}
    for violation in violations:
        key = violation_key(violation)
        ranked = (violation_order(violation), violation)
        current = best.get(key)
        if current is None or ranked[0] < current[0]:
            best[key] = ranked
    return [
        violation
        for _order, violation in sorted(
            best.values(), key=lambda ranked: ranked[0]
        )
    ]


def check_source_facts(source: Schema, instance: Instance) -> None:
    """Raise ``ValueError`` naming a fact of ``instance`` that does not fit
    the source schema: a relation it does not declare, or another arity."""
    for name in sorted(instance.relations()):
        facts = instance.facts_of(name)
        relation = source.get(name)
        if relation is None:
            raise ValueError(
                f"non-source relation {name!r}: {next(iter(facts))!r}"
            )
        for fact in facts:
            if len(fact.args) != relation.arity:
                raise ValueError(
                    f"{fact!r} has {len(fact.args)} argument(s), but "
                    f"source relation {name} is declared with arity "
                    f"{relation.arity}"
                )


def check_exchange_input(mapping: SchemaMapping, source_instance: Instance) -> None:
    """Raise ``ValueError`` unless ``mapping`` is ``gav+(gav, egd)`` and
    every source fact fits its source schema."""
    if not mapping.is_gav_gav_egd():
        raise ValueError(
            "exchange data requires a gav+(gav, egd) mapping; "
            "run reduce_mapping first"
        )
    check_source_facts(mapping.source, source_instance)


def build_exchange_data(
    mapping: SchemaMapping,
    source_instance: Instance,
    timings: dict[str, float] | None = None,
    obs: Recorder | None = None,
) -> ExchangeData:
    """Chase, ground, and detect violations for a ``gav+(gav, egd)`` mapping.

    Building the exchange is inserting the source into an empty one: one
    :func:`~repro.chase.batch.chase_insert` over pivot plans compiled here
    once (``data.plans``, reused by updates) and one index cache, which
    becomes ``data.index_cache``.  The chase's rows are the groundings;
    the violations are one hash join per egd over the same cache.  The
    lists and the interned id universe are put in canonical (sorted)
    order regardless of the evaluation order that found them, so the
    result is **bit-identical** to the nested-loop
    :func:`~repro.chase.gav.reference_exchange_data`.

    When ``timings`` is a dict, per-stage wall-clock seconds are recorded
    into it under ``chase`` / ``groundings`` (now empty: the chase emits
    them) / ``violations`` / ``index`` (used by the micro-benchmarks;
    answer-neutral).  ``obs`` (a
    :class:`~repro.obs.Recorder`) additionally records one child span per
    stage plus the deterministic work counters (chase rounds, chased
    facts, groundings, violations) — equally answer-neutral.
    """
    check_exchange_input(mapping, source_instance)
    if obs is None:
        obs = NOOP_RECORDER
    tracer, metrics = obs.tracer, obs.metrics
    clock = time.perf_counter
    plans = ChasePlans(source_instance, mapping.all_tgds(), mapping.target_egds)
    chased = Instance()
    cache = _IndexCache(chased)
    chase_stats: dict[str, int] | None = {} if metrics.enabled else None
    started = clock()
    with tracer.span("exchange.chase"):
        _added, groundings = chase_insert(
            plans, cache, source_instance, stats=chase_stats
        )
    chased_at = clock()
    with tracer.span("exchange.groundings"):
        pass  # the chase emitted each grounding once: nothing left to do
    grounded_at = clock()
    with tracer.span("exchange.violations"):
        violations = canonicalize_violations(
            find_violations_batch(mapping.target_egds, cache)
        )
    violations_at = clock()
    with tracer.span("exchange.index"):
        data = assemble_exchange_data(
            mapping, source_instance, chased, groundings, violations,
            index_cache=cache, plans=plans,
        )
    if timings is not None:
        indexed_at = clock()
        timings["chase"] = chased_at - started
        timings["groundings"] = grounded_at - chased_at
        timings["violations"] = violations_at - grounded_at
        timings["index"] = indexed_at - violations_at
    if chase_stats is not None:
        metrics.counter("exchange_chase_rounds_total").inc(
            chase_stats.get("rounds", 0)
        )
        metrics.counter("exchange_chase_derived_facts_total").inc(
            chase_stats.get("derived_facts", 0)
        )
        metrics.counter("exchange_source_facts_total").inc(len(source_instance))
        metrics.counter("exchange_chased_facts_total").inc(len(chased))
        metrics.counter("exchange_groundings_total").inc(len(groundings))
        metrics.counter("exchange_violations_total").inc(len(violations))
    return data


def assemble_exchange_data(
    mapping: SchemaMapping,
    source_instance: Instance,
    chased: Instance,
    groundings: list[tuple[TGD, tuple[Fact, ...], Fact]],
    violations: list[Violation],
    index_cache: _IndexCache | None = None,
    plans: ChasePlans | None = None,
) -> ExchangeData:
    """The exchange data of computed artifacts (``violations`` already
    canonical), with the chased facts interned in :func:`fact_order` and
    the groundings sorted by rule position, then head id and body ids:
    every list and id is a pure function of the computed *sets*, however
    they were found, and of no hash seed.  ``index_cache`` (over
    ``chased``) and ``plans`` are the build's, when it has them."""
    data = ExchangeData(
        mapping=mapping,
        source_instance=source_instance,
        chased=chased,
        groundings=groundings,
        violations=violations,
        index_cache=index_cache,
        plans=plans,
    )
    _build_fact_indexes(data)
    return data


def canonical_groundings(
    data: ExchangeData, groundings: list[tuple[TGD, tuple[Fact, ...], Fact]]
) -> list[tuple[tuple, tuple[TGD, tuple[Fact, ...], Fact]]]:
    """``groundings`` (over interned facts) as ``(key, grounding)`` pairs
    sorted by ``key = (rule position, head id, body ids)``: the one
    canonical grounding order of the build and of every delta's
    additions.  A key is unique (rule and body fix the head)."""
    rule_positions = {
        id(rule): index for index, rule in enumerate(data.mapping.all_tgds())
    }
    id_of = data.fact_ids.__getitem__
    keyed = [
        ((rule_positions[id(g[0])], id_of(g[2]), tuple(map(id_of, g[1]))), g)
        for g in groundings
    ]
    keyed.sort(key=itemgetter(0))
    return keyed


def _build_fact_indexes(data: ExchangeData) -> None:
    """Intern the chased facts, put the groundings in canonical order and
    build every int-keyed adjacency index.

    One sort of the chase, one of the groundings (by int keys), one pass
    over the violations; everything downstream (closures, envelopes,
    program builders) then works on dense ids.
    """
    facts = sorted_facts(data.chased)
    ids = {fact: fact_id for fact_id, fact in enumerate(facts)}
    data.facts_by_id = facts
    data.fact_ids = ids
    data.groundings_by_head = groundings_by_head = [[] for _ in facts]
    data.occurs_in_body = occurs_in_body = [[] for _ in facts]
    data.violations_by_fact = violations_by_fact = [[] for _ in facts]
    source_names = data._source_names
    data.source_id_mask = [fact.relation in source_names for fact in facts]

    keyed = canonical_groundings(data, data.groundings)
    data.groundings[:] = [grounding for _key, grounding in keyed]
    for index, ((_rule, head_id, body_ids), _grounding) in enumerate(keyed):
        body_ids = tuple(dict.fromkeys(body_ids))
        data.grounding_bodies.append(body_ids)
        data.grounding_heads.append(head_id)
        groundings_by_head[head_id].append(index)
        for body_id in body_ids:
            occurs_in_body[body_id].append(index)

    id_of = ids.__getitem__
    for index, violation in enumerate(data.violations):
        body_ids = tuple(dict.fromkeys(map(id_of, violation.body_facts)))
        data.violation_bodies.append(body_ids)
        for body_id in body_ids:
            violations_by_fact[body_id].append(index)


def remove_groundings(data: ExchangeData, positions: set[int]) -> None:
    """Remove groundings by position, maintaining every adjacency index.

    Swap-remove: the hole left by a removed grounding is filled with the
    list's last element, whose (single) position change is patched into
    the per-fact rows — O(delta × row-size) instead of a full rebuild.
    Grounding order is not meaningful (every consumer treats the list as
    a set), so the reordering is invisible.  Positions are processed in
    descending order, which keeps the swap source out of the removal set.
    """
    groundings = data.groundings
    bodies = data.grounding_bodies
    heads = data.grounding_heads
    by_head = data.groundings_by_head
    occurs = data.occurs_in_body
    for index in sorted(positions, reverse=True):
        by_head[heads[index]].remove(index)
        for body_id in bodies[index]:
            occurs[body_id].remove(index)
        last = len(groundings) - 1
        if index != last:
            groundings[index] = groundings[last]
            bodies[index] = bodies[last]
            heads[index] = heads[last]
            row = by_head[heads[index]]
            row[row.index(last)] = index
            for body_id in bodies[index]:
                row = occurs[body_id]
                row[row.index(last)] = index
        groundings.pop()
        bodies.pop()
        heads.pop()


def remove_violations(data: ExchangeData, positions: set[int]) -> None:
    """Remove violations by position (swap-remove, as for groundings)."""
    violations = data.violations
    bodies = data.violation_bodies
    by_fact = data.violations_by_fact
    for index in sorted(positions, reverse=True):
        for body_id in bodies[index]:
            by_fact[body_id].remove(index)
        last = len(violations) - 1
        if index != last:
            violations[index] = violations[last]
            bodies[index] = bodies[last]
            for body_id in bodies[index]:
                row = by_fact[body_id]
                row[row.index(last)] = index
        violations.pop()
        bodies.pop()


def append_grounding(
    data: ExchangeData, grounding: tuple[TGD, tuple[Fact, ...], Fact]
) -> tuple[int, tuple[int, ...]]:
    """Append one grounding, indexing it; returns ``(head_id, body_ids)``."""
    _rule, body_facts, head_fact = grounding
    index = len(data.groundings)
    data.groundings.append(grounding)
    head_id = data.intern_fact(head_fact)
    body_ids = tuple(dict.fromkeys(data.intern_fact(f) for f in body_facts))
    data.grounding_bodies.append(body_ids)
    data.grounding_heads.append(head_id)
    data.groundings_by_head[head_id].append(index)
    for body_id in body_ids:
        data.occurs_in_body[body_id].append(index)
    return head_id, body_ids


def append_violation(data: ExchangeData, violation: Violation) -> None:
    """Append one violation, indexing its body facts."""
    index = len(data.violations)
    body_ids = data.violation_body_ids(violation)
    data.violations.append(violation)
    data.violation_bodies.append(body_ids)
    for body_id in body_ids:
        data.violations_by_fact[body_id].append(index)
