"""Semi-naive delta-chase over materialized exchange data.

Maintains the chased instance, the grounding list, and the violation list
of an :class:`~repro.xr.exchange.ExchangeData` under one normalized
:class:`~repro.incremental.delta.Delta`, without re-running the chase or
the grounding/violation joins from scratch:

**Retraction** is exact liveness over recorded provenance: the facts
derivable from the remaining sources are recomputed by count-down
propagation over the grounding adjacency
(:func:`~repro.xr.envelope.derivable_ids`, Dowling–Gallier); everything
chased but no longer derivable is dead.  A grounding dies iff any body
fact dies (a live body forces a live head), a violation iff any body fact
dies.

**Insertion** is a semi-naive worklist doubling as grounding enumeration:
every new fact is added to the chased instance and then seeds one
:class:`~repro.chase.batch._PivotPlan` per (rule, body position) whose
pivot it matches; each provenance-tracked row is a grounding whose head
is derived (and enqueued if new).  A grounding with several new body
facts is found when pivoting on whichever of them is processed last (all
the others are already in the instance by then), so every grounding
touching the delta is enumerated; groundings whose body predates the
delta were enumerated before.  New violations are found the same way
after the chase settles, pivoting each new fact through the egd bodies,
deduplicated against the live set by the canonical
:func:`~repro.xr.exchange.violation_key`.  Every probe reads the exchange
data's long-lived ``index_cache`` (shared with query grounding), which
each added or dropped chased fact updates.

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

from repro.chase.batch import (
    _PivotPlan,
    _tuple_projector,
    compile_slot_head,
    compile_violations,
)
from repro.relational.instance import Fact
from repro.xr.envelope import derivable_ids
from repro.xr.exchange import (
    ExchangeData,
    Violation,
    append_grounding,
    append_violation,
    remove_groundings,
    remove_violations,
    violation_key,
)

from repro.incremental.delta import Delta

#: Identity of one grounding.  The rule is keyed by ``id()``: reduced
#: mappings can hold *distinct* rules that compare equal (``TGD.__eq__``
#: ignores labels, and e.g. a duplicated head atom splits into two
#: value-identical single-head rules), and each owns its own groundings.
#: Rule objects are stable for the data's lifetime (``mapping.all_tgds()``
#: returns the stored tuples), so ``id`` is a sound key.
GroundingKey = tuple[int, tuple[Fact, ...], Fact]


def grounding_key(
    rule, body_facts: tuple[Fact, ...], head_fact: Fact
) -> GroundingKey:
    return (id(rule), body_facts, head_fact)


#: ``relation -> [(rule, plan, head grounder, body-order projector)]``.
TgdPlans = dict[str, list[tuple]]
#: ``relation -> [(plan, violations-of-rows builder)]``.
EgdPlans = dict[str, list[tuple]]


def compile_pivot_plans(data: ExchangeData) -> tuple[TgdPlans, EgdPlans]:
    """The delta-chase's joins: one pivot plan per (tgd, body position)
    and per (egd, body position), keyed by the pivot's relation."""
    chased = data.chased
    tgd_plans: TgdPlans = {}
    for rule in data.mapping.all_tgds():
        for position in range(len(rule.body)):
            plan = _PivotPlan(chased, rule.body, position)
            tgd_plans.setdefault(plan.pivot.relation, []).append(
                (
                    rule,
                    plan,
                    compile_slot_head(rule, plan.layout),
                    _tuple_projector(plan.body_order),
                )
            )
    egd_plans: EgdPlans = {}
    for egd in data.mapping.target_egds:
        for position in range(len(egd.body)):
            plan = _PivotPlan(chased, egd.body, position)
            egd_plans.setdefault(plan.pivot.relation, []).append(
                (plan, compile_violations(egd, plan.layout))
            )
    return tgd_plans, egd_plans


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
    data: ExchangeData,
    delta: Delta,
    tgd_plans: TgdPlans,
    egd_plans: EgdPlans,
    grounding_keys: set,
    violation_keys: set,
) -> DeltaChaseReport:
    """Apply a **normalized** delta to ``data`` in place.

    Mutates ``data.source_instance`` / ``data.chased`` / ``data.groundings``
    / ``data.violations``, keeps ``grounding_keys`` / ``violation_keys``
    (the identities of the live groundings and the canonical keys of the
    live violations) in sync, and maintains the adjacency indexes in
    place (fact ids stay stable).  Keeping the key sets session-lifetime
    matters twice
    over: lookups stay O(1) per found grounding instead of rebuilding a
    set per delta, and discarding dead keys on retraction is what lets a
    later re-insertion re-derive the same grounding.  Returns the id-space
    report the cluster maintenance layer works from.
    """
    report = DeltaChaseReport()
    source = data.source_instance
    chased = data.chased
    cache = data.index_cache
    fact_ids = data.fact_ids

    # ------------------------------------------------------- retraction
    if delta.retracts:
        remaining_ids = {
            fact_ids[f] for f in source if f not in delta.retracts
        }
        alive = derivable_ids(remaining_ids, data)
        chased_ids = {fact_ids[f] for f in chased}
        report.dead_ids = chased_ids - alive

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
            dead_violation_positions.update(data.violations_by_fact[fact_id])
        for index in dead_grounding_positions:
            report.removed_groundings += 1
            report.removed_grounding_head_ids.add(data.grounding_heads[index])
            grounding_keys.discard(grounding_key(*data.groundings[index]))
        remove_groundings(data, dead_grounding_positions)
        for index in dead_violation_positions:
            violation = data.violations[index]
            report.dead_violations.append(violation)
            violation_keys.discard(violation_key(violation))
        remove_violations(data, dead_violation_positions)

        facts_by_id = data.facts_by_id
        for fact_id in dead:
            fact = facts_by_id[fact_id]
            chased.discard(fact)
            cache.discard_fact(fact)
    for fact in delta.retracts:
        source.discard(fact)

    # -------------------------------------------------------- insertion
    if delta.inserts:
        queue: list[Fact] = []
        for fact in sorted(delta.inserts, key=repr):
            source.add(fact)
            if chased.add(fact):
                cache.add_fact(fact)
                report.new_ids.add(data.intern_fact(fact))
                queue.append(fact)

        added: list[tuple] = []
        cursor = 0
        while cursor < len(queue):
            fact = queue[cursor]
            cursor += 1
            for rule, plan, ground, body_of in tgd_plans.get(
                fact.relation, ()
            ):
                # The rows are a materialized list: deriving heads below
                # cannot disturb the join that found them.
                rows = plan.rows(cache, (fact,), tracked=True)
                for values, provenance in rows:
                    body_facts = body_of(provenance)
                    head_fact = ground(values)
                    if head_fact in body_facts:
                        continue  # tautological; never a real derivation
                    added.append((rule, body_facts, head_fact))
                    if chased.add(head_fact):
                        cache.add_fact(head_fact)
                        report.new_ids.add(data.intern_fact(head_fact))
                        queue.append(head_fact)

        # Pivoting one fact through several body positions (or two new
        # facts through one grounding) re-finds the same grounding: dedup
        # against both this batch and the surviving pre-delta groundings.
        for grounding in added:
            key = grounding_key(*grounding)
            if key in grounding_keys:
                continue
            grounding_keys.add(key)
            head_id, body_ids = append_grounding(data, grounding)
            report.added_groundings += 1
            report.added_grounding_fact_ids.add(head_id)
            report.added_grounding_fact_ids.update(body_ids)

        # New violations: every violation gaining a new body fact is found
        # by pivoting that fact (the whole body is present now the chase
        # has settled); all-old violations are already in `violation_keys`.
        facts_by_id = data.facts_by_id
        for fact_id in sorted(report.new_ids):
            fact = facts_by_id[fact_id]
            for plan, violations_of in egd_plans.get(fact.relation, ()):
                for violation in violations_of(plan.rows(cache, (fact,))):
                    key = violation_key(violation)
                    if key in violation_keys:
                        continue
                    violation_keys.add(key)
                    append_violation(data, violation)
                    report.new_violations.append(violation)

    # Memoized forward closures are stale wherever the delta touched the
    # grounding graph; they repopulate lazily on the next cluster build.
    data._influence_cache.clear()
    return report
