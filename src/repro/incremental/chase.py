"""Semi-naive delta-chase over materialized exchange data.

Maintains the chased instance, the grounding list, and the violation list
of an :class:`~repro.xr.exchange.ExchangeData` under one normalized
:class:`~repro.incremental.delta.Delta`, without re-running the chase or
the grounding/violation joins from scratch:

**Retraction** is delete-and-rederive (DRed; Gupta, Mumick &
Subrahmanian, SIGMOD 1993) over recorded provenance, bounded by the
retracted facts' forward cone (:func:`~repro.xr.envelope.influence_ids`):
a chased fact outside the cone has no derivation through a retracted
fact, so it stays alive.  Inside, a count-down from the surviving facts
(:func:`~repro.xr.envelope.rederive_ids`) decides what is still
derivable; a cycle of groundings inside the cone cannot keep itself
alive.  Everything else in the cone is dead.  A grounding dies iff any
body fact dies (a live body forces a live head), a violation iff any body
fact dies.

**Insertion** is the exchange build's own chase: one
:func:`~repro.chase.batch.chase_insert` of the delta's new source facts
into the live chased instance, over the pivot plans the build compiled
(``data.plans``) and the data's long-lived ``index_cache`` (shared with
query grounding), which every added or dropped chased fact updates.  Its
strict rounds find every grounding with a body fact the delta added —
exactly the groundings the delta adds, since every surviving one has an
all-old body.  The chase interns each new fact as it derives it; once
it settles, the ids it appended are renumbered in
:func:`~repro.relational.instance.fact_order` and the new groundings
appended in the build's canonical order — the build's own two steps,
over the delta's tail — so ids and positions do not depend on the hash
seed.  New violations are found by pivoting each new
fact through the egd bodies, deduplicated against the live set by the
canonical :func:`~repro.xr.exchange.violation_key`.

Adjacency indexes are maintained **in place** (swap-remove on deletion,
append on insertion — see :func:`~repro.xr.exchange.remove_groundings`);
a delta costs work proportional to what it touched, not to the exchange
size.  Fact ids are **stable**: dead facts keep their interned id with
adjacency rows drained, so a later re-insertion rejoins the same id and
every id-keyed artifact — envelopes, signatures, cache keys — stays
meaningful across the whole update session.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chase.batch import chase_insert
from repro.xr.envelope import influence_ids, rederive_ids
from repro.xr.exchange import (
    ExchangeData,
    Violation,
    append_groundings,
    append_violation,
    canonicalize_ids,
    canonicalize_violations,
    remove_groundings,
    remove_violations,
    violation_key,
)

from repro.incremental.delta import Delta


@dataclass
class DeltaChaseReport:
    """What one delta did to the fact-level exchange state (in id space)."""

    new_ids: set[int] = field(default_factory=set)
    dead_ids: set[int] = field(default_factory=set)
    added_groundings: int = 0
    removed_groundings: int = 0
    # Ids of every fact of an added grounding (bodies may be old facts:
    # they mark where new derivations attach) and heads of removed ones.
    added_grounding_fact_ids: set[int] = field(default_factory=set)
    removed_grounding_head_ids: set[int] = field(default_factory=set)
    new_violations: list[Violation] = field(default_factory=list)
    dead_violations: list[Violation] = field(default_factory=list)
    # Facts the retraction's rederive pass re-examined (its cone).
    cone_facts: int = 0

    def dirty_ids(self) -> set[int]:
        """Every fact id whose derivation neighborhood the delta changed —
        the conservative support of the delta for cluster-touch tests."""
        return (
            self.new_ids
            | self.dead_ids
            | self.added_grounding_fact_ids
            | self.removed_grounding_head_ids
        )


def apply_delta_chase(
    data: ExchangeData, delta: Delta, violation_keys: set
) -> DeltaChaseReport:
    """Apply a **normalized** delta to ``data`` in place.

    Mutates ``data.source_instance`` / ``data.chased`` / ``data.groundings``
    / ``data.violations``, keeps ``violation_keys`` (the canonical keys of
    the live violations) in sync, and maintains the adjacency indexes in
    place (fact ids stay stable).  The key set is session-lifetime: a new
    violation is checked against it in O(1), and discarding dead keys on
    retraction is what lets a later re-insertion find the same violation.
    Returns the id-space report the cluster maintenance layer works from.
    """
    report = DeltaChaseReport()
    source = data.source_instance
    chased = data.chased
    cache = data.index_cache
    fact_ids = data.fact_ids

    # ------------------------------------------------------- retraction
    if delta.retracts:
        # Delete and rederive within the retracted facts' forward cone:
        # a fact outside it has no derivation through a retracted fact.
        # Source facts head no grounding, so the only sources in the cone
        # are the retracted ones; the surviving sources, all outside, fire
        # the count-down through the groundings' outside bodies.
        cone = influence_ids({fact_ids[f] for f in delta.retracts}, data)
        alive = rederive_ids(cone, set(), data)
        report.cone_facts = len(cone)
        report.dead_ids = cone - alive

    if report.dead_ids:
        dead = report.dead_ids
        # Every grounding with a dead body fact (the per-fact adjacency
        # rows enumerate them directly) dies; likewise every violation.
        # Groundings whose head is dead always have a dead body too (a
        # fully-live body would keep the head derivable), so the body rows
        # find everything.
        dead_grounding_positions: set[int] = set()
        dead_violation_positions: set[int] = set()
        for fact_id in dead:
            dead_grounding_positions.update(data.occurs_in_body[fact_id])
            dead_violation_positions.update(
                data.violations_by_fact.get(fact_id, ())
            )
        for index in dead_grounding_positions:
            report.removed_groundings += 1
            report.removed_grounding_head_ids.add(data.grounding_heads[index])
        remove_groundings(data, dead_grounding_positions)
        for index in dead_violation_positions:
            violation = data.violations[index]
            report.dead_violations.append(violation)
            violation_keys.discard(violation_key(violation))
        remove_violations(data, dead_violation_positions)

        facts_by_id = data.facts_by_id
        for fact_id in dead:
            chased.discard(facts_by_id[fact_id])
            cache.discard_fact(fact_id)
    for fact in delta.retracts:
        source.discard(fact)

    # -------------------------------------------------------- insertion
    if delta.inserts:
        for fact in delta.inserts:
            source.add(fact)
        start = len(data.facts_by_id)
        added, rows = chase_insert(data.plans, cache, delta.inserts)
        # Renumber the ids the chase appended in the canonical order, so
        # they do not depend on the order the rounds found the facts in
        # (set and bucket iteration, i.e. the hash seed).  Re-inserted
        # facts keep their ids.
        canonicalize_ids(cache, start, added)
        data.extend_rows()
        for slots in added.values():
            report.new_ids.update(cache.ids(slots))

        # Every grounding the chase emits has a body fact the delta added,
        # so none repeats one that survived the retraction.
        first = append_groundings(data, rows)
        report.added_groundings = len(data.groundings) - first
        touched = report.added_grounding_fact_ids
        for index in range(first, len(data.groundings)):
            touched.add(data.grounding_heads[index])
            touched.update(data.grounding_bodies[index])

        # New violations: every violation gaining a new body fact is found
        # by pivoting that fact (the whole body is present now the chase
        # has settled); all-old violations are already in `violation_keys`.
        found: list[Violation] = []
        facts_by_id = data.facts_by_id
        for fact_id in report.new_ids:
            fact = facts_by_id[fact_id]
            for plan, violations_of in data.plans.egds.get(fact.relation, ()):
                found += violations_of(plan.rows(cache, (fact,)))
        for violation in canonicalize_violations(found):
            key = violation_key(violation)
            if key not in violation_keys:
                violation_keys.add(key)
                append_violation(data, violation)
                report.new_violations.append(violation)

    return report
