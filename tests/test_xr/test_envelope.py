"""Tests for repair envelopes, influences, and violation clusters (§6.2–6.3)."""

import pytest

from repro.parser import parse_mapping
from repro.reduction import reduce_mapping
from repro.relational import Fact, Instance
from repro.xr.envelope import analyze_envelopes, influence, support_closure
from repro.xr.exchange import build_exchange_data
from repro.xr.oracle import source_repairs


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


def analyzed(mapping, facts):
    reduced = reduce_mapping(mapping)
    data = build_exchange_data(reduced.gav, Instance(facts))
    return data, analyze_envelopes(data)


class TestSupportClosureAndInfluence:
    def test_closure_reaches_sources(self):
        data, _ = analyzed(
            key_mapping(), [f("R", "a", "b"), f("R", "a", "c")]
        )
        closure = support_closure({f("P", "a", "b")}, data)
        assert f("R", "a", "b") in closure

    def test_fact_outside_the_exchange_raises_without_growing_ids(self):
        data, _ = analyzed(
            key_mapping(), [f("R", "a", "b"), f("R", "a", "c")]
        )
        universe = len(data.facts_by_id)
        with pytest.raises(KeyError):
            support_closure({f("P", "z", "z")}, data)
        with pytest.raises(KeyError):
            influence({f("R", "z", "z")}, data)
        assert len(data.facts_by_id) == universe

    def test_influence_reaches_targets(self):
        data, _ = analyzed(
            key_mapping(), [f("R", "a", "b"), f("R", "a", "c")]
        )
        influenced = influence({f("R", "a", "b")}, data)
        assert f("P", "a", "b") in influenced

    def test_influence_of_source_restriction_contains_closure(self):
        """Fact 1 of the paper."""
        data, _ = analyzed(
            key_mapping(), [f("R", "a", "b"), f("R", "a", "c")]
        )
        target = {f("P", "a", "b")}
        closure = support_closure(target, data)
        sources = {x for x in closure if x.relation == "R"}
        assert closure <= influence(sources, data)


class TestSuspectSafeSplit:
    def test_conflicting_facts_suspect(self):
        data, analysis = analyzed(
            key_mapping(),
            [f("R", "a", "b"), f("R", "a", "c"), f("R", "z", "w")],
        )
        assert analysis.suspect_source == {f("R", "a", "b"), f("R", "a", "c")}
        safe_source = set(data.source_instance) - analysis.suspect_source
        assert safe_source == {f("R", "z", "w")}

    def test_suspect_is_a_source_repair_envelope(self):
        """Proposition 3: every deleted fact of every repair is suspect."""
        mapping = key_mapping()
        facts = [f("R", "a", "b"), f("R", "a", "c"), f("R", "z", "w")]
        _, analysis = analyzed(mapping, facts)
        instance = Instance(facts)
        for repair in source_repairs(instance, mapping):
            deleted = set(instance) - set(repair)
            assert deleted <= analysis.suspect_source

    def test_safe_chased_contains_safe_derivations(self):
        data, analysis = analyzed(
            key_mapping(),
            [f("R", "a", "b"), f("R", "a", "c"), f("R", "z", "w")],
        )
        assert data.fact_ids[f("P", "z", "w")] in analysis.safe_ids
        assert data.fact_ids[f("P", "a", "b")] not in analysis.safe_ids

    def test_no_violations_everything_safe(self):
        _, analysis = analyzed(key_mapping(), [f("R", "a", "b")])
        assert not analysis.suspect_source
        assert not analysis.clusters


class TestViolationClusters:
    def test_independent_conflicts_separate_clusters(self):
        """Example 2 of the paper: unrelated violations do not merge."""
        _, analysis = analyzed(
            key_mapping(),
            [
                f("R", "a", "b"), f("R", "a", "c"),
                f("R", "x", "u"), f("R", "x", "v"),
            ],
        )
        assert len(analysis.clusters) == 2
        envelopes = [c.source_envelope_ids for c in analysis.clusters]
        assert envelopes[0].isdisjoint(envelopes[1])

    def test_overlapping_closures_merge(self):
        # Three facts with one shared key: one cluster with both violations.
        _, analysis = analyzed(
            key_mapping(),
            [f("R", "a", "b"), f("R", "a", "c"), f("R", "a", "d")],
        )
        assert len(analysis.clusters) == 1
        assert len(analysis.clusters[0].violations) >= 3  # all pairs clash

    def test_example_3_shared_influence(self):
        """Example 3: two clusters whose influences overlap on T-facts."""
        mapping = parse_mapping(
            """
            SOURCE P/2, Q/2. TARGET R/2, S/2, T/3.
            P(x, y) -> R(x, y).
            Q(x, y) -> S(x, y).
            R(x, y), S(x, z) -> T(x, y, z).
            R(x, y), R(x, y2) -> y = y2.
            S(x, y), S(x, y2) -> y = y2.
            """
        )
        data, analysis = analyzed(
            mapping,
            [
                f("P", "a1", "a2"), f("P", "a1", "a3"),
                f("Q", "a1", "a2"), f("Q", "a1", "a3"),
            ],
        )
        assert len(analysis.clusters) == 2
        shared = {
            data.facts_by_id[fact_id]
            for fact_id in analysis.clusters[0].influence_ids
            & analysis.clusters[1].influence_ids
        }
        assert any(fact.relation == "T" for fact in shared)
        # Source envelopes remain disjoint (Prop. 5 justification).
        assert analysis.clusters[0].source_envelope_ids.isdisjoint(
            analysis.clusters[1].source_envelope_ids
        )
        # T-facts carry both clusters in their signature.
        t_fact = next(fact for fact in shared if fact.relation == "T")
        assert analysis.signature({data.fact_ids[t_fact]}) == frozenset({0, 1})
