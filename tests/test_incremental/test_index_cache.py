"""The engine-lifetime index cache (``ExchangeData.index_cache``).

Query grounding and the delta-chase probe one shared
:class:`~repro.chase.batch._IndexCache` over the chased instance, which
the delta-chase keeps exact.  Pinned here:

- *consistency* — after every step of the update corpus and of 25 seeded
  update streams, every registered index equals one rebuilt from scratch
  over ``data.chased``;
- *concurrency* — K threads grounding the same new query at once leave
  exactly one registered index per signature;
- *bound* — queries that differ only in a constant share their indexes,
  and query-introduced indexes never exceed ``QUERY_INDEX_LIMIT``;
- *discards* are dict deletions, not bucket scans.
"""

import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.chase.batch import QUERY_INDEX_LIMIT, _AtomStep, _IndexCache
from repro.fuzz.generator import DEFAULT_CONFIG, random_scenario
from repro.fuzz.updates import load_update_corpus, random_update_stream
from repro.parser import parse_query
from repro.relational import Fact, Instance
from repro.relational.queries import Atom
from repro.relational.terms import Const, Variable
from repro.scenarios.tpch import tpch_scenario
from repro.xr.queries import ground_query
from repro.xr.segmentary import SegmentaryEngine

UPDATES_CORPUS = Path(__file__).resolve().parents[1] / "corpus" / "updates"
X, Y = Variable("x"), Variable("y")


def registered(cache: _IndexCache) -> list[tuple[_AtomStep, dict]]:
    return [
        entry for entries in cache._by_relation.values() for entry in entries
    ]


def by_fact(cache: _IndexCache, index: dict) -> dict:
    """An index with its buckets keyed by fact instead of slot (two
    caches give one fact different slots)."""
    facts_by_id, id_at = cache.facts_by_id, cache.id_at
    return {
        key: {facts_by_id[id_at[slot]]: ext for slot, ext in bucket.items()}
        for key, bucket in index.items()
    }


def assert_cache_exact(cache: _IndexCache, label: str) -> None:
    """Every registered index equals a from-scratch rebuild, and the two
    registries agree (one index per signature, no orphan)."""
    entries = registered(cache)
    signatures = [step.signature for step, _index in entries]
    assert len(signatures) == len(set(signatures)), label
    assert set(signatures) == set(cache._by_signature), label
    for step, index in entries:
        assert cache._by_signature[step.signature] is index, label
        scratch = _IndexCache(cache.instance)
        fresh = scratch.index_for(step)
        assert by_fact(cache, index) == by_fact(scratch, fresh), (
            f"{label}: {step.signature}"
        )


def replay_checking_cache(scenario, deltas, label):
    with SegmentaryEngine(scenario.mapping, scenario.instance.copy()) as engine:
        session = engine.update_session()
        cache = engine.data.index_cache
        assert cache.instance is engine.data.chased
        engine.answer(scenario.query)
        assert_cache_exact(cache, f"{label} before")
        for step, delta in enumerate(deltas):
            session.apply(delta)
            assert_cache_exact(cache, f"{label} step {step}")
            # Query indexes registered between deltas must stay exact too.
            engine.answer(scenario.query)
        return cache


class TestConsistency:
    def test_update_corpus(self):
        entries = load_update_corpus(UPDATES_CORPUS)
        assert entries
        for path, scenario, deltas in entries:
            replay_checking_cache(scenario, deltas, path.name)

    @pytest.mark.parametrize("seed", range(25))
    def test_seeded_update_streams(self, seed):
        scenario = random_scenario(seed, DEFAULT_CONFIG)
        deltas = random_update_stream(seed, scenario, 10, DEFAULT_CONFIG)
        cache = replay_checking_cache(scenario, deltas, f"seed {seed}")
        assert registered(cache), "the stream must exercise some index"


class _SlowFacts:
    """An instance view whose extension reads yield the GIL, so threads
    racing to build the same index all reach the build."""

    def __init__(self, instance: Instance) -> None:
        self.instance = instance

    def facts_of(self, relation: str):
        time.sleep(0.01)
        return self.instance.facts_of(relation)


class TestConcurrency:
    K = 8

    def test_concurrent_grounding_registers_one_index_per_signature(self):
        scenario = tpch_scenario(0.005, 0.2, 0)
        with SegmentaryEngine(scenario.mapping, scenario.instance) as engine:
            engine.exchange()
            query = engine.reduced.rewrite(
                parse_query(
                    "qls(o, s, n) :- line_supply(o, p, s, av), "
                    "t_supplier(s, sn, n)."
                )
            )
            chased = engine.data.chased
        cache = _IndexCache(chased)
        cache.instance = _SlowFacts(chased)
        data = SimpleNamespace(chased=chased, index_cache=cache)
        barrier = threading.Barrier(self.K)
        results: list = [None] * self.K

        def worker(slot: int) -> None:
            barrier.wait()
            results[slot] = ground_query(query, data)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(self.K)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results[0] and all(result == results[0] for result in results)
        signatures = [
            step.signature for step, _index in registered(data.index_cache)
        ]
        assert len(signatures) == len(set(signatures)) == 2


class TestBound:
    def test_queries_differing_in_a_constant_share_their_indexes(self):
        scenario = tpch_scenario(0.005, 0.2, 0)
        with SegmentaryEngine(scenario.mapping, scenario.instance) as engine:
            engine.exchange()
            cache = engine.data.index_cache
            before = set(cache._by_signature)
            for nation in range(100):
                engine.answer(
                    parse_query(f"q(c) :- t_customer(c, cn, {nation}, m).")
                )
            introduced = set(cache._by_signature) - before
        assert len(introduced) == 1
        assert len(cache._transient) == 1

    def test_query_indexes_are_capped(self):
        instance = Instance(Fact("R", (i, i % 7)) for i in range(50))
        cache = _IndexCache(instance)
        pinned = _AtomStep(Atom("R", (X, Y)), {})
        cache.index_for(pinned)
        for value in range(3 * QUERY_INDEX_LIMIT):
            cache.index_for(_AtomStep(Atom("R", (X, Const(value))), {}), True)
        assert len(cache._transient) == QUERY_INDEX_LIMIT
        assert len(cache._by_signature) == QUERY_INDEX_LIMIT + 1
        assert pinned.signature in cache._by_signature
        # Dropped indexes are no longer maintained; kept ones stay exact.
        cache.instance.add(Fact("R", (99, 3)))
        cache.add_fact(Fact("R", (99, 3)), cache.intern(Fact("R", (99, 3))))
        assert_cache_exact(cache, "capped")

    def test_a_pinned_request_keeps_a_query_index(self):
        cache = _IndexCache(Instance([Fact("R", (1, 2))]))
        step = _AtomStep(Atom("R", (X, Y)), {})
        index = cache.index_for(step, True)
        assert cache.index_for(step) is index
        for value in range(2 * QUERY_INDEX_LIMIT):
            cache.index_for(_AtomStep(Atom("R", (X, Const(value))), {}), True)
        assert cache._by_signature[step.signature] is index


def test_discard_is_not_a_bucket_scan():
    """A key-less step keeps the whole relation in one bucket; discarding
    every fact one at a time must stay linear overall."""
    facts = [Fact("R", (i, i)) for i in range(20_000)]
    instance = Instance(facts)
    cache = _IndexCache(instance)
    step = _AtomStep(Atom("R", (X, Y)), {})
    (bucket,) = cache.index_for(step).values()
    assert len(bucket) == len(facts)
    started = time.perf_counter()
    for fact in facts:
        cache.discard_fact(cache.fact_ids[fact])
    assert time.perf_counter() - started < 5.0
    assert cache.index_for(step) == {}
