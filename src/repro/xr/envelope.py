"""Repair envelopes, suspect facts, influences, violation clusters (§6.2–6.3).

Definitions implemented here (numbers refer to the paper):

- **support closure** (Def. 4): backward closure of a set of facts under
  "all facts of any support set belong too";
- **violations / suspect / safe** (Def. 5): a source fact is *suspect* when
  it lies in the support closure of the egd violations; ``Isuspect`` is a
  source repair envelope computable in PTIME (Prop. 3);
- **influence** (Def. 7): forward closure — every fact with a support set
  meeting the influence joins it; ``(Isuspect, Jsuspect)`` is an exchange
  repair envelope (Prop. 4);
- **violation clusters** (Def. 8 / Prop. 5–6): violations whose support
  closures share source facts are grouped; distinct clusters have disjoint
  source envelopes and are therefore pairwise-independent, so their repairs
  can be explored separately and recombined.

All closures run over the interned integer universe of
:class:`~repro.xr.exchange.ExchangeData` (``groundings_by_head`` /
``occurs_in_body`` adjacency arrays), and the analysis stores its
envelopes as ids only.  :func:`support_closure` and :func:`influence`
translate facts of the exchange to ids and back; a fact outside it
raises ``KeyError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Iterable

from repro.relational.instance import Fact
from repro.xr.exchange import ExchangeData, Violation


def support_closure_ids(seed_ids: set[int], data: ExchangeData) -> set[int]:
    """Backward closure over fact ids (Def. 4)."""
    closure = set(seed_ids)
    frontier = list(seed_ids)
    groundings_by_head = data.groundings_by_head
    bodies = data.grounding_bodies
    while frontier:
        fact_id = frontier.pop()
        for grounding_index in groundings_by_head[fact_id]:
            for body_id in bodies[grounding_index]:
                if body_id not in closure:
                    closure.add(body_id)
                    frontier.append(body_id)
    return closure


def influence_ids(seed_ids: set[int], data: ExchangeData) -> set[int]:
    """Forward closure over fact ids (Def. 7)."""
    influenced = set(seed_ids)
    frontier = list(seed_ids)
    occurs = data.occurs_in_body
    heads = data.grounding_heads
    while frontier:
        fact_id = frontier.pop()
        for grounding_index in occurs[fact_id]:
            head_id = heads[grounding_index]
            if head_id not in influenced:
                influenced.add(head_id)
                frontier.append(head_id)
    return influenced


def support_closure(facts: set[Fact], data: ExchangeData) -> set[Fact]:
    """The support closure (Def. 4): smallest superset closed under supports."""
    fact_ids = data.fact_ids
    closure_ids = support_closure_ids({fact_ids[fact] for fact in facts}, data)
    return {data.facts_by_id[fact_id] for fact_id in closure_ids}


def influence(seed: set[Fact], data: ExchangeData) -> set[Fact]:
    """The influence (Def. 7): forward closure through support sets."""
    fact_ids = data.fact_ids
    influenced = influence_ids({fact_ids[fact] for fact in seed}, data)
    return {data.facts_by_id[fact_id] for fact_id in influenced}


@dataclass
class ViolationCluster:
    """A connected component of pairwise-dependent violations.

    ``closure_ids`` is the union of the violations' support closures,
    ``source_envelope_ids`` its source facts and ``influence_ids`` their
    influence, all as fact ids (``data.facts_by_id`` maps them back).

    ``index`` is the cluster's **stable id**, not its position in
    ``EnvelopeAnalysis.clusters``: incremental maintenance retires the ids
    of clusters a delta touched and mints fresh ones for replacements, so
    the surviving ids (and everything keyed by them — signatures, cache
    entries) stay meaningful across updates.  Look clusters up with
    :meth:`EnvelopeAnalysis.cluster`, never by list position.
    """

    index: int
    violations: list[Violation]
    closure_ids: frozenset[int] = frozenset()
    source_envelope_ids: frozenset[int] = frozenset()
    influence_ids: frozenset[int] = frozenset()


@dataclass
class EnvelopeAnalysis:
    """The exchange-phase artifacts: safe/suspect split and clusters.

    The safe source facts are the live source facts not in
    ``suspect_source``.
    """

    data: ExchangeData
    suspect_source: set[Fact]
    clusters: list[ViolationCluster]
    # Interned ids of Isafe ∪ chase(Isafe), everything certainly kept (all
    # lie in the chased universe: the safe chase is a sub-chase of the
    # full one).  Update sessions maintain the set in place.
    safe_ids: set[int] = field(default_factory=set)
    # fact id -> stable ids of clusters whose influence contains it.
    cluster_membership: dict[int, set[int]] = field(default_factory=dict)
    # Next fresh stable cluster id (monotonic; never reused).
    next_cluster_id: int = 0
    _cluster_lookup: dict[int, ViolationCluster] | None = field(
        default=None, init=False, repr=False
    )

    def cluster(self, cluster_id: int) -> ViolationCluster:
        """The cluster with the given **stable id** (not list position)."""
        lookup = self._cluster_lookup
        if lookup is None:
            lookup = {cluster.index: cluster for cluster in self.clusters}
            self._cluster_lookup = lookup
        return lookup[cluster_id]

    def invalidate_cluster_lookup(self) -> None:
        """Drop the memoized id → cluster map after mutating ``clusters``."""
        self._cluster_lookup = None

    def signature(self, support_ids: Iterable[int]) -> frozenset[int]:
        """The signature (§6.4) of a candidate given the ids of its
        support-set facts."""
        clusters: set[int] = set()
        membership = self.cluster_membership
        for fact_id in support_ids:
            found = membership.get(fact_id)
            if found is not None:
                clusters |= found
        return frozenset(clusters)


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, index: int) -> int:
        root = index
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[index] != root:
            self.parent[index], index = root, self.parent[index]
        return root

    def union(self, left: int, right: int) -> None:
        left_root, right_root = self.find(left), self.find(right)
        if left_root != right_root:
            self.parent[right_root] = left_root


def derivable_ids(seed_ids: set[int], data: ExchangeData) -> set[int]:
    """Fact ids derivable from ``seed_ids`` by firing groundings (a chase
    over the precomputed adjacency).

    A grounding fires when its whole (deduplicated) body is derived; the
    count-down propagation visits each grounding body edge once
    (Dowling–Gallier).  Equals ``chase(seed)`` restricted to the universe:
    every chase derivation from a sub-instance of the chased instance is a
    recorded grounding, and the tautological groundings dropped by the
    grounder never contribute a new fact.  The whole-chase reference for
    :func:`analyze_envelopes`' safe set, which rederives only the
    suspects' cone.
    """
    remaining = [len(body) for body in data.grounding_bodies]
    heads = data.grounding_heads
    occurs = data.occurs_in_body
    derived = set(seed_ids)
    frontier = list(seed_ids)
    for index, count in enumerate(remaining):
        if count == 0:
            head_id = heads[index]
            if head_id not in derived:
                derived.add(head_id)
                frontier.append(head_id)
    while frontier:
        fact_id = frontier.pop()
        for index in occurs[fact_id]:
            remaining[index] -= 1
            if remaining[index] == 0:
                head_id = heads[index]
                if head_id not in derived:
                    derived.add(head_id)
                    frontier.append(head_id)
    return derived


def rederive_ids(
    cone: set[int],
    seed_ids: set[int],
    data: ExchangeData,
    held: AbstractSet[int] | None = None,
) -> set[int]:
    """The facts of ``cone`` derivable from ``seed_ids`` when, outside the
    cone, exactly the facts of ``held`` hold (every fact, when ``None``).

    :func:`derivable_ids` restricted to a forward-closed ``cone``: only
    groundings headed in the cone are counted down, each by its body
    facts inside the cone; one whose body meets a fact outside the cone
    that does not hold never fires.  Facts outside the cone enter only as
    such bodies, so the result is ``derivable_ids ∩ cone`` whenever
    ``held`` holds exactly the derivable facts outside the cone.  Cycles
    inside the cone need a seed to fire, never themselves.
    """
    bodies = data.grounding_bodies
    heads = data.grounding_heads
    by_head = data.groundings_by_head
    occurs = data.occurs_in_body
    remaining: dict[int, int] = {}
    derived = set(seed_ids)
    frontier = list(seed_ids)
    for fact_id in cone:
        for index in by_head[fact_id]:
            count = 0
            for body_id in bodies[index]:
                if body_id in cone:
                    count += 1
                elif held is not None and body_id not in held:
                    break
            else:
                if count:
                    remaining[index] = count
                elif fact_id not in derived:
                    derived.add(fact_id)
                    frontier.append(fact_id)
    while frontier:
        fact_id = frontier.pop()
        for index in occurs[fact_id]:
            count = remaining.get(index)
            if count is None:
                continue  # blocked outside the cone
            if count > 1:
                remaining[index] = count - 1
                continue
            del remaining[index]
            head_id = heads[index]
            if head_id not in derived:
                derived.add(head_id)
                frontier.append(head_id)
    return derived


def build_cluster(
    cluster_id: int,
    violations: list[Violation],
    closure_ids: set[int],
    data: ExchangeData,
) -> ViolationCluster:
    """Assemble one :class:`ViolationCluster` from its members and closure.

    Shared by the fresh analysis below and the incremental cluster
    maintenance of :mod:`repro.incremental`, so both produce clusters with
    identical derived fields (envelope, influence).
    """
    source_mask = data.source_id_mask
    envelope_ids = frozenset(
        fact_id for fact_id in closure_ids if source_mask[fact_id]
    )
    cluster_influence_ids = frozenset(influence_ids(set(envelope_ids), data))
    return ViolationCluster(
        index=cluster_id,
        violations=violations,
        closure_ids=frozenset(closure_ids),
        source_envelope_ids=envelope_ids,
        influence_ids=cluster_influence_ids,
    )


def cluster_violations(
    violation_closures: list[set[int]], data: ExchangeData
) -> list[list[int]]:
    """Group violation positions whose support closures share a suspect
    source fact (Prop. 5/6: the source restrictions of the closures are
    repair envelopes; overlap means possible dependence).

    ``violation_closures[i]`` is the support closure of the violation at
    position ``i`` of the list being clustered (not necessarily
    ``data.violations`` — the incremental path clusters a sub-pool).
    Groups are returned sorted by member positions, matching the fresh
    analysis's deterministic cluster order.
    """
    source_mask = data.source_id_mask
    union_find = _UnionFind(len(violation_closures))
    owner_of: dict[int, int] = {}
    for index, closure in enumerate(violation_closures):
        for fact_id in closure:
            if not source_mask[fact_id]:
                continue
            previous = owner_of.get(fact_id)
            if previous is None:
                owner_of[fact_id] = index
            else:
                union_find.union(previous, index)
    grouped: dict[int, list[int]] = {}
    for index in range(len(violation_closures)):
        grouped.setdefault(union_find.find(index), []).append(index)
    return sorted(grouped.values())


def analyze_envelopes(data: ExchangeData) -> EnvelopeAnalysis:
    """Run the exchange-phase analysis of Section 6 on exchange data."""
    facts_by_id = data.facts_by_id
    source_mask = data.source_id_mask

    # Per-violation support closures and the suspect set (all in id space).
    violation_closures = [
        support_closure_ids(set(body_ids), data)
        for body_ids in data.violation_bodies
    ]
    suspect_ids: set[int] = set()
    for closure in violation_closures:
        for fact_id in closure:
            if source_mask[fact_id]:
                suspect_ids.add(fact_id)
    suspect_source = {facts_by_id[fact_id] for fact_id in suspect_ids}

    clusters: list[ViolationCluster] = []
    for cluster_index, member_indexes in enumerate(
        cluster_violations(violation_closures, data)
    ):
        closure_ids: set[int] = set()
        for violation_index in member_indexes:
            closure_ids |= violation_closures[violation_index]
        clusters.append(
            build_cluster(
                cluster_index,
                [data.violations[i] for i in member_indexes],
                closure_ids,
                data,
            )
        )

    # Isafe ∪ chase(Isafe).  A fact outside the suspects' forward cone
    # has no derivation through a suspect, so the safe sources derive
    # it; inside, the count-down decides, with everything outside held.
    # The cone holds no safe source (sources head no grounding), so
    # nothing inside it is seeded.
    cone = influence_ids(suspect_ids, data)
    if len(facts_by_id) == len(data.chased):
        safe_ids = set(range(len(facts_by_id)))
    else:  # the universe keeps facts an update removed
        safe_ids = {data.fact_ids[fact] for fact in data.chased}
    safe_ids -= cone
    safe_ids |= rederive_ids(cone, set(), data)
    analysis = EnvelopeAnalysis(
        data=data,
        suspect_source=suspect_source,
        clusters=clusters,
        safe_ids=safe_ids,
        next_cluster_id=len(clusters),
    )
    membership = analysis.cluster_membership
    for cluster in clusters:
        for fact_id in cluster.influence_ids:
            membership.setdefault(fact_id, set()).add(cluster.index)
    return analysis
