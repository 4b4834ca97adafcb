"""Update sessions: live cluster maintenance over a maintained exchange.

An :class:`UpdateSession` owns the mutable exchange state of one
:class:`~repro.xr.exchange.ExchangeData` (and optionally the
:class:`~repro.xr.envelope.EnvelopeAnalysis`, signature-program cache and
engine built on it) and applies :class:`~repro.incremental.delta.Delta`
batches in place:

1. **Delta-chase** (:mod:`repro.incremental.chase`): chased instance,
   groundings and violations maintained by the build's own semi-naive
   chase, on the pivot plans and the index cache the build left on the
   exchange data; adjacency maintained in place with stable fact ids.
2. **Cluster maintenance**: a cluster is *touched* iff one of its
   violations died or its support closure / influence meets the delta's
   dirty set (dead facts, new facts, facts of added groundings, heads of
   removed groundings) — every structural change to a cluster funnels
   through one of those, so untouched clusters are **object-identical**
   afterwards (the cluster-locality property the fuzz harness checks).
   The violations of touched clusters plus the new violations are
   re-clustered from scratch; untouched clusters whose source envelopes
   meet the re-clustered pool's suspects are pulled in and merged
   (insertions can spawn *and* merge clusters; retraction can split them).
   Touched and pulled-in clusters are found through the fact → cluster
   membership index, which is patched for the re-clustered clusters only.
   The suspect/safe source split changes only where the touched
   clusters' envelopes did, and the safe chase ``Isafe ∪ chase(Isafe)``
   only inside the forward cone of the dirty facts and the sources whose
   suspicion flipped: it is rederived there, with the status of every
   fact outside the cone held fixed.
3. **Id hygiene and cache invalidation**: cluster ids are stable and
   monotonic.  A recomputed group identical to the touched cluster it came
   from (same violation objects, same closure/envelope/influence) keeps
   its object and id; everything else gets a fresh id and the old ids are
   *retired*.  A surviving cluster whose influence contains a fact whose
   safe/suspect status flipped also has its id retired (its focus — and
   hence its program — changed even though its membership did not).
   :meth:`~repro.runtime.cache.SignatureProgramCache.invalidate_clusters`
   then drops exactly the cache entries whose signature meets the retired
   ids; decisions about unaffected clusters survive the update.

Instrumented with :mod:`repro.obs`: span ``incremental.delta_chase``
around each applied delta, counters ``incremental.deltas_total``,
``incremental.clusters_touched``, ``incremental.cache_invalidated`` and
``incremental.cone_facts`` (facts the two rederive passes re-examined).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs.recorder import NOOP_RECORDER, Recorder
from repro.relational.instance import Instance
from repro.xr.envelope import (
    EnvelopeAnalysis,
    ViolationCluster,
    build_cluster,
    cluster_violations,
    influence_ids,
    rederive_ids,
    support_closure_ids,
)
from repro.xr.exchange import ExchangeData, check_source_facts, violation_key

from repro.incremental.chase import DeltaChaseReport, apply_delta_chase
from repro.incremental.delta import Delta


@dataclass
class UpdateReport:
    """What one applied delta did, layer by layer."""

    inserted_source: int = 0
    retracted_source: int = 0
    facts_added: int = 0
    facts_removed: int = 0
    groundings_added: int = 0
    groundings_removed: int = 0
    violations_added: int = 0
    violations_removed: int = 0
    clusters_touched: int = 0
    clusters_retired: int = 0
    clusters_created: int = 0
    clusters_total: int = 0
    cache_invalidated: int = 0
    # Facts the two rederive passes (retraction liveness, safe set)
    # re-examined: the work the delta's cones cost.
    cone_facts: int = 0
    seconds: float = 0.0
    noop: bool = False
    retired_cluster_ids: frozenset[int] = frozenset()


@dataclass
class SessionStats:
    """Cumulative counters over the session's lifetime."""

    deltas_applied: int = 0
    noop_deltas: int = 0
    clusters_touched: int = 0
    clusters_retired: int = 0
    cache_invalidated: int = 0
    seconds: float = 0.0


class UpdateSession:
    """Maintain materialized exchange state under source-tuple updates.

    Construct via :meth:`ExchangeData.update_session` or
    :meth:`SegmentaryEngine.update_session`.  The session mutates the
    exchange data (and analysis, cache, engine stats) **in place** —
    including ``data.source_instance``, which an engine shares with its
    ``instance`` attribute.  Callers wanting to keep the pre-update
    instance must pass a copy when building the engine.
    """

    def __init__(
        self,
        data: ExchangeData,
        analysis: EnvelopeAnalysis | None = None,
        cache=None,
        obs: Recorder | None = None,
        engine=None,
    ) -> None:
        self.data = data
        self.analysis = analysis
        self.cache = cache
        self.obs = obs if obs is not None else NOOP_RECORDER
        self.engine = engine
        self.stats = SessionStats()
        self._violation_keys = {violation_key(v) for v in data.violations}

    # ------------------------------------------------------------- apply

    def validate(self, deltas) -> None:
        """Raise ``ValueError`` if any fact of any delta does not fit the
        source schema; nothing is applied either way."""
        source = self.data.mapping.source
        for delta in deltas:
            check_source_facts(source, Instance(delta.support_facts()))

    def apply(self, delta: Delta) -> UpdateReport:
        """Apply one delta; returns the per-layer report."""
        started = time.perf_counter()
        self.validate([delta])
        effective = delta.normalized(self.data.source_instance)
        report = UpdateReport(noop=effective.is_noop())
        tracer, metrics = self.obs.tracer, self.obs.metrics
        if not report.noop:
            with tracer.span(
                "incremental.delta_chase",
                inserts=len(effective.inserts),
                retracts=len(effective.retracts),
            ):
                chase_report = apply_delta_chase(
                    self.data, effective, self._violation_keys
                )
            report.inserted_source = len(effective.inserts)
            report.retracted_source = len(effective.retracts)
            report.facts_added = len(chase_report.new_ids)
            report.facts_removed = len(chase_report.dead_ids)
            report.groundings_added = chase_report.added_groundings
            report.groundings_removed = chase_report.removed_groundings
            report.violations_added = len(chase_report.new_violations)
            report.violations_removed = len(chase_report.dead_violations)
            report.cone_facts = chase_report.cone_facts

            if self.analysis is not None:
                with tracer.span("incremental.clusters"):
                    retired = self._maintain_clusters(chase_report, report)
                report.clusters_retired = len(retired)
                report.retired_cluster_ids = frozenset(retired)
                report.clusters_total = len(self.analysis.clusters)
                if self.cache is not None and retired:
                    report.cache_invalidated = (
                        self.cache.invalidate_clusters(retired)
                    )
        if self.engine is not None:
            self.engine.refresh_exchange_stats()

        report.seconds = time.perf_counter() - started
        self.stats.deltas_applied += 1
        self.stats.noop_deltas += int(report.noop)
        self.stats.clusters_touched += report.clusters_touched
        self.stats.clusters_retired += report.clusters_retired
        self.stats.cache_invalidated += report.cache_invalidated
        self.stats.seconds += report.seconds
        if metrics.enabled:
            metrics.inc("incremental.deltas_total")
            metrics.inc(
                "incremental.clusters_touched", report.clusters_touched
            )
            metrics.inc(
                "incremental.cache_invalidated", report.cache_invalidated
            )
            metrics.inc("incremental.cone_facts", report.cone_facts)
        return report

    def apply_stream(self, deltas) -> list[UpdateReport]:
        """Apply a list of deltas in order, after validating all of them:
        a stream with one bad step is rejected before any step applies."""
        self.validate(deltas)
        return [self.apply(delta) for delta in deltas]

    # ----------------------------------------------- cluster maintenance

    def _clusters_meeting(self, fact_ids) -> set[int]:
        """Stable ids of the clusters whose influence holds one of
        ``fact_ids`` (through the fact → cluster membership index)."""
        membership = self.analysis.cluster_membership
        facts_by_id = self.data.facts_by_id
        found: set[int] = set()
        for fact_id in fact_ids:
            clusters = membership.get(facts_by_id[fact_id])
            if clusters:
                found |= clusters
        return found

    def _maintain_clusters(
        self, chase_report: DeltaChaseReport, report: UpdateReport
    ) -> set[int]:
        """Recompute exactly the clusters the delta could have changed.

        Returns the retired cluster ids, fills the cluster and cone
        counters of ``report``, and leaves ``self.analysis`` updated in
        place (same object — the engine keeps its reference).
        """
        analysis = self.analysis
        data = self.data
        assert analysis is not None
        dirty = chase_report.dirty_ids()
        dead_violations = {id(v) for v in chase_report.dead_violations}

        # A cluster's support closure lies inside its influence (every
        # closure fact derives from the envelope) and a dead violation
        # has a dead body fact, so the clusters whose influence meets the
        # dirty set are exactly the touched ones.
        touched = [
            analysis.cluster(cluster_id)
            for cluster_id in sorted(self._clusters_meeting(dirty))
        ]
        touched_ids = {cluster.index for cluster in touched}

        # Pool to re-cluster: surviving violations of touched clusters plus
        # the new ones.  Untouched clusters whose source envelope meets the
        # pool's suspect facts must merge with it — pull them in and
        # repeat until the pool is closed (a pulled-in cluster's own
        # envelope can overlap further clusters).
        pool = [
            v
            for cluster in touched
            for v in cluster.violations
            if id(v) not in dead_violations
        ]
        pool.extend(chase_report.new_violations)
        source_mask = data.source_id_mask
        closures = [
            support_closure_ids(set(data.violation_body_ids(v)), data)
            for v in pool
        ]
        while True:
            pool_suspects = {
                fact_id
                for closure in closures
                for fact_id in closure
                if source_mask[fact_id]
            }
            nearby = self._clusters_meeting(pool_suspects) - touched_ids
            pulled = [
                cluster
                for cluster in map(analysis.cluster, sorted(nearby))
                if not pool_suspects.isdisjoint(cluster.source_envelope_ids)
            ]
            if not pulled:
                break
            for cluster in pulled:
                touched.append(cluster)
                touched_ids.add(cluster.index)
                for violation in cluster.violations:
                    pool.append(violation)
                    closures.append(
                        support_closure_ids(
                            set(data.violation_body_ids(violation)), data
                        )
                    )

        # Regroup the pool and rebuild its clusters, reusing a touched
        # cluster (object and id) when the recomputation reproduced it
        # exactly — clusters touched only conservatively keep their cached
        # decisions that way.
        by_members = {
            frozenset(id(v) for v in cluster.violations): cluster
            for cluster in touched
        }
        rebuilt: list[ViolationCluster] = []
        fresh: list[ViolationCluster] = []
        reused: set[int] = set()
        for member_positions in cluster_violations(closures, data):
            members = [pool[p] for p in member_positions]
            closure_ids: set[int] = set()
            for position in member_positions:
                closure_ids |= closures[position]
            previous = by_members.get(frozenset(id(v) for v in members))
            if previous is not None:
                candidate = build_cluster(
                    previous.index, members, closure_ids, data
                )
                if (
                    candidate.closure_ids == previous.closure_ids
                    and candidate.source_envelope_ids
                    == previous.source_envelope_ids
                    and candidate.influence_ids == previous.influence_ids
                ):
                    rebuilt.append(previous)
                    reused.add(id(previous))
                    continue
            fresh_id = analysis.next_cluster_id
            analysis.next_cluster_id += 1
            cluster = build_cluster(fresh_id, members, closure_ids, data)
            rebuilt.append(cluster)
            fresh.append(cluster)
        gone = [cluster for cluster in touched if id(cluster) not in reused]
        retired = {cluster.index for cluster in gone}

        # Clusters have pairwise-disjoint source envelopes, so suspicion
        # flips only where the touched clusters' old envelopes and the
        # rebuilt clusters' new ones differ.
        old_envelope = set().union(*(c.source_envelope_ids for c in touched))
        new_envelope = set().union(*(c.source_envelope_ids for c in rebuilt))
        flipped, cone_facts = self._maintain_safe_set(
            chase_report, dirty, old_envelope, new_envelope
        )
        report.cone_facts += cone_facts

        # Focus-flip detection: a surviving cluster whose influence holds
        # a fact whose safety flipped gets a *fresh id* — its repair
        # program (focus = influence − safe) changed even though its
        # membership and envelope did not — so stale cache entries die.
        # Freshly-built clusters already carry fresh ids.
        renamed: list[tuple[int, ViolationCluster]] = []
        for cluster_id in sorted(self._clusters_meeting(flipped) - retired):
            cluster = analysis.cluster(cluster_id)
            renamed.append((cluster_id, cluster))
            retired.add(cluster_id)
            cluster.index = analysis.next_cluster_id
            analysis.next_cluster_id += 1

        # The fact → cluster-id membership index, patched for the
        # re-clustered and renumbered clusters only.
        membership = analysis.cluster_membership
        facts_by_id = data.facts_by_id
        for cluster in gone:
            for fact_id in cluster.influence_ids:
                fact = facts_by_id[fact_id]
                cluster_ids = membership[fact]
                cluster_ids.discard(cluster.index)
                if not cluster_ids:
                    del membership[fact]
        for old_id, cluster in renamed:
            for fact_id in cluster.influence_ids:
                cluster_ids = membership[facts_by_id[fact_id]]
                cluster_ids.discard(old_id)
                cluster_ids.add(cluster.index)
        for cluster in fresh:
            for fact_id in cluster.influence_ids:
                membership.setdefault(facts_by_id[fact_id], set()).add(
                    cluster.index
                )

        removed = {id(cluster) for cluster in gone}
        clusters = [c for c in analysis.clusters if id(c) not in removed]
        clusters += fresh
        clusters.sort(key=lambda c: c.index)
        analysis.clusters = clusters
        analysis.invalidate_cluster_lookup()

        report.clusters_touched = len(touched)
        report.clusters_created = len(fresh)
        return retired

    def _maintain_safe_set(
        self,
        chase_report: DeltaChaseReport,
        dirty: set[int],
        old_envelope: set[int],
        new_envelope: set[int],
    ) -> tuple[set[int], int]:
        """Maintain the safe/suspect source split and the safe chase.

        ``old_envelope``/``new_envelope`` are the source envelopes of the
        touched and of the rebuilt clusters.  Returns the ids whose safety
        flipped and the size of the cone the safe chase was rederived in.
        """
        analysis = self.analysis
        data = self.data
        facts_by_id = data.facts_by_id
        source_mask = data.source_id_mask
        source = data.source_instance
        suspect, safe = analysis.suspect_source, analysis.safe_source
        for fact_id in old_envelope - new_envelope:
            fact = facts_by_id[fact_id]
            suspect.discard(fact)
            if fact in source:
                safe.add(fact)
        for fact_id in new_envelope - old_envelope:
            fact = facts_by_id[fact_id]
            suspect.add(fact)
            safe.discard(fact)
        # Source facts among the dead/new ones are the retracted/inserted.
        for fact_id in chase_report.dead_ids:
            if source_mask[fact_id]:
                safe.discard(facts_by_id[fact_id])
        for fact_id in chase_report.new_ids:
            fact = facts_by_id[fact_id]
            if source_mask[fact_id] and fact not in suspect:
                safe.add(fact)

        # Outside the forward cone of the dirty facts and the sources whose
        # suspicion flipped, every fact keeps the derivations it had, from
        # sources whose safety is unchanged: its safety is unchanged too.
        # Inside, the safe chase is rederived with the outside held fixed.
        cone = influence_ids(dirty | (old_envelope ^ new_envelope), data)
        safe_ids = analysis.safe_ids
        rederived = rederive_ids(
            cone,
            {
                fact_id
                for fact_id in cone
                if source_mask[fact_id] and facts_by_id[fact_id] in safe
            },
            data,
            held=safe_ids,
        )
        flipped = (cone & safe_ids) ^ rederived
        safe_ids ^= flipped
        return flipped, len(cone)
