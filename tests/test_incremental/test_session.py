"""Update-session behavior plus the delta-chase algebra properties.

The property tests are the satellite contract of PR 7: applying a delta
and then its inverse restores the exchange state exactly;
``chase(I ∪ Δ) == delta_chase(chase(I), Δ)`` across fuzz seeds; and
clusters disjoint from a delta's support survive **object-identical**
(the locality guarantee the signature cache's survival rests on).
"""

import pytest

from repro.fuzz.generator import DEFAULT_CONFIG, random_scenario
from repro.fuzz.updates import (
    check_update_seed,
    random_update_stream,
)
from repro.incremental import Delta, apply_delta
from repro.parser import parse_mapping, parse_query
from repro.relational import Fact, Instance
from repro.xr.exchange import violation_key
from repro.xr.segmentary import SegmentaryEngine


def f(rel, *args):
    return Fact(rel, args)


def key_mapping():
    return parse_mapping(
        """
        SOURCE R/2. TARGET P/2.
        R(x, y) -> P(x, y).
        P(x, y), P(x, z) -> y = z.
        """
    )


TWO_CLUSTERS = [
    f("R", "a", "b"),
    f("R", "a", "c"),  # cluster on key 'a'
    f("R", "d", "e"),
    f("R", "d", "g"),  # cluster on key 'd'
    f("R", "s", "t"),  # safe
]


def fresh_engine(instance_facts):
    return SegmentaryEngine(key_mapping(), Instance(instance_facts))


class TestUpdateSession:
    def test_insert_creates_conflict(self):
        engine = fresh_engine([f("R", "a", "b"), f("R", "s", "t")])
        session = engine.update_session()
        assert len(engine.analysis.clusters) == 0
        report = session.apply(Delta(inserts=frozenset({f("R", "a", "c")})))
        assert report.violations_added == 1
        assert report.clusters_created == 1
        assert len(engine.analysis.clusters) == 1
        assert engine.answer(parse_query("q(x) :- P(x, y).")) == {
            ("a",),
            ("s",),
        }

    def test_retract_dissolves_conflict(self):
        engine = fresh_engine(TWO_CLUSTERS)
        session = engine.update_session()
        assert len(engine.analysis.clusters) == 2
        report = session.apply(Delta(retracts=frozenset({f("R", "a", "c")})))
        assert report.violations_removed == 1
        assert len(engine.analysis.clusters) == 1
        # The surviving conflict is the one on key 'd'.
        (cluster,) = engine.analysis.clusters
        assert f("R", "d", "e") in cluster.source_envelope
        answers = engine.answer(parse_query("q(x, y) :- P(x, y)."))
        assert ("a", "b") in answers

    def test_rejects_non_source_relations(self):
        engine = fresh_engine(TWO_CLUSTERS)
        session = engine.update_session()
        with pytest.raises(ValueError, match="non-source relation"):
            session.apply(Delta(inserts=frozenset({f("P", "x", "y")})))

    def test_rejects_wrong_arity(self):
        engine = fresh_engine(TWO_CLUSTERS)
        session = engine.update_session()
        with pytest.raises(ValueError, match=r"R\(7\).*arity 2"):
            session.apply(Delta(inserts=frozenset({f("R", 7)})))
        assert f("R", 7) not in engine.instance

    def test_rejected_stream_applies_no_step(self):
        engine = fresh_engine(TWO_CLUSTERS)
        session = engine.update_session()
        stream = [
            Delta(retracts=frozenset({f("R", "a", "c")})),
            Delta(inserts=frozenset({f("R", 7)})),
        ]
        with pytest.raises(ValueError, match="arity"):
            session.apply_stream(stream)
        assert f("R", "a", "c") in engine.instance
        assert len(engine.analysis.clusters) == 2
        assert session.stats.deltas_applied == 0

    def test_noop_delta_changes_nothing(self):
        engine = fresh_engine(TWO_CLUSTERS)
        session = engine.update_session()
        before = list(engine.analysis.clusters)
        report = session.apply(
            Delta(
                inserts=frozenset({f("R", "a", "b")}),  # already present
                retracts=frozenset({f("R", "z", "z")}),  # already absent
            )
        )
        assert report.noop
        assert report.cache_invalidated == 0
        assert engine.analysis.clusters == before
        assert session.stats.noop_deltas == 1

    def test_engine_stats_track_updates(self):
        engine = fresh_engine(TWO_CLUSTERS)
        session = engine.update_session()
        assert engine.exchange_stats.source_facts == 5
        session.apply(Delta(inserts=frozenset({f("R", "n", "m")})))
        assert engine.exchange_stats.source_facts == 6
        assert engine.exchange_stats.chased_facts == len(engine.data.chased)

    def test_cluster_locality_object_identity(self):
        engine = fresh_engine(TWO_CLUSTERS)
        session = engine.update_session()
        by_key = {
            min(c.source_envelope, key=repr).args[0]: c
            for c in engine.analysis.clusters
        }
        untouched_before = by_key["a"]
        session.apply(Delta(retracts=frozenset({f("R", "d", "g")})))
        (survivor,) = engine.analysis.clusters
        assert survivor is untouched_before
        assert survivor.index == untouched_before.index


def _state_snapshot(engine):
    return (
        frozenset(engine.data.chased),
        frozenset(
            (rule.label, body, head) for rule, body, head in engine.data.groundings
        ),
        frozenset(violation_key(v) for v in engine.data.violations),
        frozenset(
            frozenset(violation_key(v) for v in cluster.violations)
            for cluster in engine.analysis.clusters
        ),
        frozenset(engine.analysis.safe_source),
        frozenset(engine.analysis.safe_chased),
    )


PROPERTY_SEEDS = range(6)


class TestDeltaChaseAlgebra:
    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_apply_then_invert_restores_state(self, seed):
        scenario = random_scenario(seed, DEFAULT_CONFIG)
        deltas = random_update_stream(seed, scenario, 5, DEFAULT_CONFIG)
        engine = SegmentaryEngine(scenario.mapping, scenario.instance.copy())
        session = engine.update_session()
        baseline = _state_snapshot(engine)
        for delta in deltas:
            effective = delta.normalized(engine.data.source_instance)
            session.apply(effective)
            session.apply(effective.inverted())
            assert _state_snapshot(engine) == baseline
        engine.close()

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_delta_chase_commutes_with_chase(self, seed):
        # check_update_seed compares the warm incremental engine against a
        # from-scratch exchange of the updated instance at every step —
        # chased facts, groundings, violations, clusters, envelopes, safe
        # split, and both answer modes.
        assert check_update_seed(seed, DEFAULT_CONFIG, steps=6) == []

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_surviving_cluster_ids_are_object_identical(self, seed):
        scenario = random_scenario(seed, DEFAULT_CONFIG)
        deltas = random_update_stream(seed, scenario, 6, DEFAULT_CONFIG)
        engine = SegmentaryEngine(scenario.mapping, scenario.instance.copy())
        session = engine.update_session()
        for delta in deltas:
            before = {c.index: c for c in engine.analysis.clusters}
            session.apply(delta)
            for cluster in engine.analysis.clusters:
                if cluster.index in before:
                    assert cluster is before[cluster.index]
        engine.close()
