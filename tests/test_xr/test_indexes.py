"""The interned adjacency of :class:`ExchangeData` vs naive scans.

The grounding and violation indexes (``groundings_by_head``,
``occurs_in_body``, ``violations_by_fact``) exist purely for speed: every
entry must agree with a linear scan of the fact-level ``groundings`` /
``violations`` lists, and the id-based closures must agree with their
definitional fixpoints.  Checked on randomly generated fuzz scenarios and
on the genomics mapping.

The id-native paths get their own equivalence checks, on the golden
corpus and 25 fuzz seeds, both fresh and after an update stream: the safe
set read off the suspects' forward cone equals the count-down over the
whole chase, and query supports (fact ids) mapped back to facts equal the
nested-loop reference grounding.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.chase.gav import gav_chase, reference_ground_query
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generator import DEFAULT_CONFIG, random_scenario
from repro.fuzz.updates import random_update_stream
from repro.genomics.instances import InstanceProfile, build_instance
from repro.genomics.schema import genome_mapping
from repro.reduction.reduce import reduce_mapping
from repro.relational.instance import Instance
from repro.xr.envelope import analyze_envelopes, derivable_ids, influence_ids
from repro.xr.exchange import ExchangeData, build_exchange_data
from repro.xr.queries import ground_query
from repro.xr.segmentary import SegmentaryEngine

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"


def exchange_for_seed(seed: int) -> ExchangeData:
    scenario = random_scenario(seed)
    reduced = reduce_mapping(scenario.mapping)
    return build_exchange_data(reduced.gav, scenario.instance)


def check_universe(data: ExchangeData) -> None:
    assert len(data.facts_by_id) == len(data.fact_ids)
    for fact_id, fact in enumerate(data.facts_by_id):
        assert data.fact_ids[fact] == fact_id
    assert set(data.facts_by_id) >= set(data.chased)
    source_names = data.mapping.source.names()
    for fact_id, fact in enumerate(data.facts_by_id):
        assert data.source_id_mask[fact_id] == (fact.relation in source_names)


def check_grounding_indexes(data: ExchangeData) -> None:
    assert len(data.grounding_bodies) == len(data.groundings)
    assert len(data.grounding_heads) == len(data.groundings)
    for index, (_rule, head_id, body_ids) in enumerate(data.groundings):
        assert data.grounding_heads[index] == head_id
        # Deduplicated, first-occurrence order.
        assert data.grounding_bodies[index] == tuple(dict.fromkeys(body_ids))
    for fact_id in range(len(data.facts_by_id)):
        naive_heads = [
            index
            for index, (_r, head, _b) in enumerate(data.groundings)
            if head == fact_id
        ]
        assert data.groundings_by_head[fact_id] == naive_heads
        naive_bodies = [
            index
            for index, (_r, _h, body) in enumerate(data.groundings)
            if fact_id in body
        ]
        assert data.occurs_in_body[fact_id] == naive_bodies


def check_violation_indexes(data: ExchangeData) -> None:
    assert len(data.violation_bodies) == len(data.violations)
    for index, violation in enumerate(data.violations):
        body = [data.facts_by_id[i] for i in data.violation_bodies[index]]
        assert body == list(dict.fromkeys(violation.body_facts))
    naive: dict[int, list[int]] = {}
    for fact_id in range(len(data.facts_by_id)):
        for index, violation in enumerate(data.violations):
            if data.facts_by_id[fact_id] in violation.body_facts:
                naive.setdefault(fact_id, []).append(index)
    # Sparse: only facts of some violation body have a row.
    assert data.violations_by_fact == naive


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_indexes_agree_with_naive_scans_on_fuzz_scenarios(seed):
    data = exchange_for_seed(seed)
    check_universe(data)
    check_grounding_indexes(data)
    check_violation_indexes(data)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_derivable_ids_is_the_chase_fixpoint(seed):
    """Grounding propagation from any suspect-free seed equals re-chasing."""
    data = exchange_for_seed(seed)
    source_ids = sorted(data.fact_ids[fact] for fact in data.source_instance)
    seed_ids = set(source_ids[:: 2])  # an arbitrary sub-instance
    derived = derivable_ids(seed_ids, data)
    rechased = gav_chase(
        Instance(data.facts_by_id[i] for i in seed_ids),
        list(data.mapping.all_tgds()),
    )
    assert {data.facts_by_id[i] for i in derived} == set(rechased)


def test_indexes_on_genomics_instance():
    reduced = reduce_mapping(genome_mapping())
    instance = build_instance(InstanceProfile("T", 6, 0.2)).instance
    data = build_exchange_data(reduced.gav, instance)
    check_universe(data)
    check_grounding_indexes(data)
    check_violation_indexes(data)


def test_influence_cache_matches_uncached_walk():
    data = exchange_for_seed(4321)
    for fact_id in range(len(data.facts_by_id)):
        cached = influence_ids({fact_id}, data)
        # Definitional forward closure.
        expected = {fact_id}
        frontier = [fact_id]
        while frontier:
            current = frontier.pop()
            for index in data.occurs_in_body[current]:
                head = data.grounding_heads[index]
                if head not in expected:
                    expected.add(head)
                    frontier.append(head)
        assert cached == expected


SCENARIOS = [
    (path.stem, scenario) for path, scenario in load_corpus(CORPUS_DIR)
] + [(f"seed-{seed}", random_scenario(seed)) for seed in range(25)]


def check_id_native_paths(engine: SegmentaryEngine, query, label: str) -> None:
    data = engine.data
    fact_ids = data.fact_ids
    # A fresh analysis's safe set (the suspects' cone rederived, the rest
    # kept) equals the safe sources' count-down over the whole chase.
    analysis = analyze_envelopes(data)
    suspect_ids = {fact_ids[fact] for fact in analysis.suspect_source}
    safe_source_ids = {fact_ids[fact] for fact in data.source_instance}
    safe_source_ids -= suspect_ids
    assert analysis.safe_ids == derivable_ids(safe_source_ids, data), label
    assert engine.analysis.safe_ids == analysis.safe_ids, label
    # Id supports, read back as facts, are the reference's supports.
    rewritten = engine.reduced.rewrite(query)
    fact_of = data.facts_by_id.__getitem__
    grounded = {
        (candidate, tuple(map(fact_of, support)))
        for candidate, support in ground_query(rewritten, data)
    }
    expected = set(reference_ground_query(rewritten, data.chased))
    assert grounded == expected, label


@pytest.mark.parametrize(
    "label, scenario", SCENARIOS, ids=[label for label, _ in SCENARIOS]
)
def test_id_native_paths_match_the_whole_chase_and_the_reference(
    label, scenario
):
    seed = SCENARIOS.index((label, scenario))
    deltas = random_update_stream(seed, scenario, 10, DEFAULT_CONFIG)
    with SegmentaryEngine(scenario.mapping, scenario.instance.copy()) as engine:
        engine.exchange()
        check_id_native_paths(engine, scenario.query, f"{label} fresh")
        session = engine.update_session()
        for delta in deltas:
            session.apply(delta)
        check_id_native_paths(engine, scenario.query, f"{label} updated")
