"""Cone-bounded maintenance equals the from-scratch closures.

An update session decides which chased facts survive a retraction, and
which facts are safe, by rederiving inside the delta's forward cone only
(``repro.xr.envelope.rederive_ids``).  After every step of seeded update
streams, and on hand-built cases that stress the cone boundary, the
maintained state must equal the from-scratch closures
(``derivable_ids``) over the maintained adjacency, and the safe chase
must equal the one of a fresh exchange of the current source.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.fuzz.generator import DEFAULT_CONFIG, random_scenario
from repro.fuzz.updates import random_update_stream
from repro.incremental import Delta
from repro.parser import parse_mapping
from repro.relational import Fact, Instance
from repro.xr.envelope import derivable_ids
from repro.xr.segmentary import SegmentaryEngine


def f(rel, *args):
    return Fact(rel, args)


def safe_source(engine) -> set[Fact]:
    """The live source facts that are not suspect."""
    return set(engine.data.source_instance) - engine.analysis.suspect_source


def safe_chase(engine) -> set[Fact]:
    facts_by_id = engine.data.facts_by_id
    return {facts_by_id[fact_id] for fact_id in engine.analysis.safe_ids}


def assert_matches_scratch(engine, label: str = "") -> None:
    data, analysis = engine.data, engine.analysis
    fact_ids = data.fact_ids
    source_ids = {fact_ids[fact] for fact in data.source_instance}
    # Liveness: the chased instance is exactly what the sources derive.
    chased_ids = {fact_ids[fact] for fact in data.chased}
    assert chased_ids == derivable_ids(source_ids, data), label
    # The suspect/safe split follows the cluster envelopes.
    suspect_ids = set()
    for cluster in analysis.clusters:
        suspect_ids |= cluster.source_envelope_ids
    suspect = {data.facts_by_id[i] for i in suspect_ids}
    assert analysis.suspect_source == suspect, label
    assert suspect <= set(data.source_instance), label
    safe_count = len(set(data.source_instance) - suspect)
    assert engine.exchange_stats.safe_source_facts == safe_count, label
    safe_ids = derivable_ids(source_ids - suspect_ids, data)
    assert analysis.safe_ids == safe_ids, label
    # The membership index that finds touched clusters is exact.
    membership: dict[int, set[int]] = {}
    for cluster in analysis.clusters:
        for fact_id in cluster.influence_ids:
            membership.setdefault(fact_id, set()).add(cluster.index)
    assert analysis.cluster_membership == membership, label
    # And a fresh exchange of the current source agrees.
    source = data.source_instance.copy()
    with SegmentaryEngine(engine.reduced, source) as fresh:
        fresh.exchange()
        assert set(fresh.data.chased) == set(data.chased), label
        assert safe_chase(fresh) == safe_chase(engine), label


TPCH_CONFIG = replace(DEFAULT_CONFIG, profile="tpch")
STREAMS = [(seed, DEFAULT_CONFIG) for seed in range(25)] + [
    (seed, TPCH_CONFIG) for seed in range(5)
]


@pytest.mark.parametrize(
    "seed,config",
    STREAMS,
    ids=[f"{config.profile}-{seed}" for seed, config in STREAMS],
)
def test_every_step_of_a_random_stream_matches_scratch(seed, config):
    scenario = random_scenario(seed, config)
    deltas = random_update_stream(seed, scenario, 10, config)
    instance = scenario.instance.copy()
    with SegmentaryEngine(scenario.mapping, instance) as engine:
        session = engine.update_session()
        for step, delta in enumerate(deltas):
            report = session.apply(delta)
            if report.retracted_source:
                assert report.cone_facts >= report.retracted_source
            assert_matches_scratch(engine, f"seed {seed} step {step}")


def engine_for(mapping_text: str, facts) -> SegmentaryEngine:
    engine = SegmentaryEngine(parse_mapping(mapping_text), Instance(facts))
    engine.exchange()
    return engine


def test_retraction_kills_a_self_supporting_cycle():
    engine = engine_for(
        """
        SOURCE S/1. TARGET P/1, Q/1.
        S(x) -> P(x).
        P(x) -> Q(x).
        Q(x) -> P(x).
        """,
        [f("S", "a"), f("S", "b")],
    )
    session = engine.update_session()
    report = session.apply(Delta(retracts=frozenset({f("S", "a")})))
    # P(a) and Q(a) support each other, but nothing supports the pair.
    assert report.facts_removed == 3
    assert f("P", "a") not in engine.data.chased
    assert f("Q", "a") not in engine.data.chased
    assert {f("P", "b"), f("Q", "b")} <= safe_chase(engine)
    assert_matches_scratch(engine)
    session.apply(Delta(inserts=frozenset({f("S", "a")})))
    assert {f("P", "a"), f("Q", "a")} <= safe_chase(engine)
    assert_matches_scratch(engine)


def test_a_derivation_outside_the_cone_keeps_a_fact_alive():
    engine = engine_for(
        """
        SOURCE S/1, T/1. TARGET P/1, Q/1.
        S(x) -> P(x).
        T(x) -> P(x).
        P(x) -> Q(x).
        """,
        [f("S", "a"), f("T", "a")],
    )
    session = engine.update_session()
    report = session.apply(Delta(retracts=frozenset({f("S", "a")})))
    # P(a) lies in the cone of S(a) but T(a) still derives it.
    assert report.facts_removed == 1
    assert report.groundings_removed == 1
    assert {f("P", "a"), f("Q", "a")} <= set(engine.data.chased)
    assert {f("P", "a"), f("Q", "a")} <= safe_chase(engine)
    assert_matches_scratch(engine)


KEYED_JOIN = """
    SOURCE R/2, S/2. TARGET P/2, W/2, T/2.
    R(x, y) -> P(x, y).
    S(x, y) -> W(x, y).
    P(x, y), P(x, z) -> y = z.
    W(x, y), P(x, y) -> T(x, y).
"""


def test_a_step_with_an_insert_turns_a_suspect_fact_safe_again():
    engine = engine_for(KEYED_JOIN, [f("R", "a", "b")])
    session = engine.update_session()
    assert f("R", "a", "b") in safe_source(engine)
    session.apply(Delta(inserts=frozenset({f("R", "a", "c")})))
    assert f("R", "a", "b") in engine.analysis.suspect_source
    assert f("P", "a", "b") not in safe_chase(engine)
    assert_matches_scratch(engine)
    # One step drops the conflict and inserts a fact that joins with the
    # fact it made safe again: T(a, b) is safe only through P(a, b).
    session.apply(
        Delta(
            inserts=frozenset({f("S", "a", "b")}),
            retracts=frozenset({f("R", "a", "c")}),
        )
    )
    assert f("R", "a", "b") in safe_source(engine)
    assert not engine.analysis.suspect_source
    assert {f("P", "a", "b"), f("T", "a", "b")} <= safe_chase(engine)
    assert_matches_scratch(engine)
