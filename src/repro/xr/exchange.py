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
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import attrgetter

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
from repro.relational.instance import (
    Fact,
    Instance,
    fact_order,
    fact_order_argsort,
)
from repro.relational.schema import Schema
from repro.relational.terms import value_order


_RELATION = attrgetter("relation")


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

    Everything is stated over one **dense id universe**: every chased
    fact has an id, ``fact_ids`` (the one :class:`Fact`-keyed map) and
    ``facts_by_id`` translate, and the ids follow :func:`fact_order`
    within each build and each delta's additions.  The chase interns a
    fact when it first derives it (:class:`~repro.chase.batch._IndexCache`
    owns the universe and shares its two maps), and one renumbering puts
    the new ids in canonical order.

    - ``groundings`` — the support sets of Definition 4, as ``(rule
      position in mapping.all_tgds(), head id, body ids in body order)``,
      which is also their canonical sort key;
    - ``grounding_bodies`` / ``grounding_heads`` — per grounding, its
      deduplicated body ids (first-occurrence order) and its head id;
    - ``groundings_by_head`` / ``occurs_in_body`` — per fact id, the
      groundings it heads (support flowing *backward*) and the ones whose
      body holds it (influence flowing *forward*);
    - ``violations`` / ``violation_bodies`` — the violations of
      Definition 5 and their deduplicated body ids; ``violations_by_fact``
      maps only the facts of some violation body to those violations.

    Downstream hot loops (closures, envelopes, program builders, query
    grounding) traverse these int arrays instead of hashing facts.
    """

    mapping: SchemaMapping
    source_instance: Instance
    chased: Instance  # I ∪ J: source facts plus the canonical quasi-solution
    groundings: list[tuple[int, int, tuple[int, ...]]] = field(
        default_factory=list
    )
    violations: list[Violation] = field(default_factory=list)
    # ----------------------------------------------- interned universe
    # fact -> dense id (0-based) and its inverse: index_cache's.
    fact_ids: Mapping[Fact, int] = field(init=False)
    facts_by_id: list[Fact] = field(init=False)
    grounding_bodies: list[tuple[int, ...]] = field(default_factory=list)
    grounding_heads: list[int] = field(default_factory=list)
    groundings_by_head: list[list[int]] = field(default_factory=list)
    occurs_in_body: list[list[int]] = field(default_factory=list)
    violation_bodies: list[tuple[int, ...]] = field(default_factory=list)
    violations_by_fact: dict[int, list[int]] = field(default_factory=dict)
    # fact id -> True iff the fact belongs to a source relation.
    source_id_mask: list[bool] = field(default_factory=list)
    _source_names: frozenset[str] = field(
        default_factory=frozenset, init=False, repr=False
    )
    # The build's pivot plans and hash indexes over ``chased`` (kept
    # exact by the delta-chase; query grounding reads them too), and the
    # owner of the id universe.
    index_cache: _IndexCache = field(default=None, repr=False, compare=False)
    plans: ChasePlans = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._source_names = frozenset(self.mapping.source.names())
        if self.plans is None:  # not built by build_exchange_data
            tgds, egds = self.mapping.all_tgds(), self.mapping.target_egds
            self.plans = ChasePlans(self.source_instance, tgds, egds)
        self.fact_ids = self.index_cache.fact_ids
        self.facts_by_id = self.index_cache.facts_by_id

    def target_facts(self) -> set[Fact]:
        source_names = self.mapping.source.names()
        return {f for f in self.chased if f.relation not in source_names}

    def quasi_solution(self) -> Instance:
        """The canonical quasi-solution (target restriction of the chase)."""
        return self.chased.restrict(self.mapping.target.names())

    # ------------------------------------------------ id-universe helpers

    def extend_rows(self) -> None:
        """Give every id the universe gained an empty adjacency row."""
        new = self.facts_by_id[len(self.source_id_mask):]
        self.groundings_by_head += [[] for _ in new]
        self.occurs_in_body += [[] for _ in new]
        self.source_id_mask += map(
            self._source_names.__contains__, map(_RELATION, new)
        )

    def violation_body_ids(self, violation: Violation) -> tuple[int, ...]:
        """The deduplicated body fact ids of one violation (its body facts
        are chased facts, so each has an id)."""
        fact_ids = self.fact_ids
        return tuple(dict.fromkeys(fact_ids[f] for f in violation.body_facts))

    def update_session(self, analysis=None, cache=None, obs=None):
        """An :class:`~repro.incremental.UpdateSession` over this data.

        Convenience constructor; see :mod:`repro.incremental` for the
        delta-chase and live cluster-maintenance machinery behind it.
        """
        from repro.incremental import UpdateSession

        return UpdateSession(self, analysis=analysis, cache=cache, obs=obs)


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
    becomes ``data.index_cache`` and owns the id universe.  The chase
    interns each fact as it derives it, and its rows are the groundings,
    over slots; the violations are one hash join per egd over the same
    cache.  The index stage renumbers the ids in :func:`fact_order` and
    puts the groundings in canonical (sorted) order regardless of the
    evaluation order that found them, so the result is **bit-identical**
    to the nested-loop :func:`~repro.chase.gav.reference_exchange_data`.

    When ``timings`` is a dict, per-stage wall-clock seconds are recorded
    into it under ``chase`` / ``groundings`` (now empty: the chase emits
    them) / ``violations`` / ``index`` (read by the benchmarks;
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
        added, rows = chase_insert(
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
            mapping, source_instance, chased, added, rows, violations,
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
        metrics.counter("exchange_groundings_total").inc(len(rows))
        metrics.counter("exchange_violations_total").inc(len(violations))
    return data


def assemble_exchange_data(
    mapping: SchemaMapping,
    source_instance: Instance,
    chased: Instance,
    added: dict[str, list[int]],
    rows: list[tuple[int, int, tuple[int, ...]]],
    violations: list[Violation],
    index_cache: _IndexCache,
    plans: ChasePlans | None = None,
) -> ExchangeData:
    """The exchange data of computed artifacts: ``index_cache`` holds the
    universe of ``chased``, ``added`` its slots by relation, ``rows`` the
    groundings as ``(rule position in mapping.all_tgds(), head slot, body
    slots)`` over it, and ``violations`` is canonical.  The ids are
    renumbered in :func:`fact_order` and the groundings sorted by rule
    position, then head id and body ids: every list and id is a pure
    function of the computed *sets*, however they were found, and of no
    hash seed.  ``plans`` are the build's, when it has them."""
    data = ExchangeData(
        mapping=mapping,
        source_instance=source_instance,
        chased=chased,
        index_cache=index_cache,
        plans=plans,
    )
    canonicalize_ids(index_cache, 0, added)
    data.extend_rows()
    append_groundings(data, rows)
    for violation in violations:
        append_violation(data, violation)
    return data


def canonicalize_ids(
    cache: _IndexCache, start: int, added: dict[str, list[int]]
) -> None:
    """Renumber the ids ``cache`` gave from ``start`` on in
    :func:`fact_order`: the whole universe after a build, a delta's new
    tail after an update.  ``added`` holds, by relation, the slots of
    the facts the chase added, which include every fact it interned (a
    fact keeps the id equal to its slot until renumbered); re-inserted
    facts, which keep their ids, lie below ``start``."""
    facts_by_id = cache.facts_by_id
    order: list[int] = []
    for relation in sorted(added):
        new_ids = [slot for slot in added[relation] if slot >= start]
        facts = [facts_by_id[fact_id] for fact_id in new_ids]
        order += map(new_ids.__getitem__, fact_order_argsort(facts))
    cache.renumber(start, order)


def append_groundings(
    data: ExchangeData, rows: list[tuple[int, int, tuple[int, ...]]]
) -> int:
    """Append chase rows ``(rule position, head slot, body slots)`` as
    groundings, translated to ids and in canonical order — by rule
    position, head id, body ids, a unique key (rule and body fix the
    head) — indexing each; returns the position of the first.  The one
    grounding order of the build and of every delta's additions."""
    id_at = data.index_cache.id_at.__getitem__
    keyed = [
        (position, id_at(head), tuple(map(id_at, body)))
        for position, head, body in rows
    ]
    keyed.sort()
    first = len(data.groundings)
    data.groundings += keyed
    heads = [head_id for _position, head_id, _body in keyed]
    bodies = [
        body
        if len(body) < 2 or len(set(body)) == len(body)
        else tuple(dict.fromkeys(body))
        for _position, _head, body in keyed
    ]
    data.grounding_heads += heads
    data.grounding_bodies += bodies
    by_head, occurs = data.groundings_by_head, data.occurs_in_body
    for index, head_id in enumerate(heads, first):
        by_head[head_id].append(index)
    for index, body in enumerate(bodies, first):
        for body_id in body:
            occurs[body_id].append(index)
    return first


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
            row = by_fact[body_id]
            row.remove(index)
            if not row:
                del by_fact[body_id]
        last = len(violations) - 1
        if index != last:
            violations[index] = violations[last]
            bodies[index] = bodies[last]
            for body_id in bodies[index]:
                row = by_fact[body_id]
                row[row.index(last)] = index
        violations.pop()
        bodies.pop()


def append_violation(data: ExchangeData, violation: Violation) -> None:
    """Append one violation, indexing its body facts."""
    index = len(data.violations)
    body_ids = data.violation_body_ids(violation)
    data.violations.append(violation)
    data.violation_bodies.append(body_ids)
    for body_id in body_ids:
        data.violations_by_fact.setdefault(body_id, []).append(index)
