"""Tests for the cross-query signature-program cache and decision memo."""

from repro.parser import parse_mapping, parse_query
from repro.relational import Fact, Instance
from repro.runtime.cache import SignatureProgramCache, decision_key, program_key
from repro.xr.segmentary import SegmentaryEngine


def f(rel, *args):
    return Fact(rel, args)


CONFLICT_INSTANCE = [f("R", "a", "b"), f("R", "a", "c"), f("R", "d", "e")]


def key_mapping():
    return parse_mapping(
        """
        SOURCE R/2. TARGET P/2.
        R(x, y) -> P(x, y).
        P(x, y), P(x, z) -> y = z.
        """
    )


class TestKeys:
    def test_decision_key_drops_safe_facts(self):
        safe = {f("R", "d", "e")}
        key = decision_key([(f("R", "a", "b"), f("R", "d", "e"))], safe)
        assert key == frozenset({frozenset({f("R", "a", "b")})})

    def test_decision_key_ignores_support_order_and_duplicates(self):
        s1 = (f("R", "a", "b"), f("R", "a", "c"))
        s2 = (f("R", "a", "c"), f("R", "a", "b"), f("R", "a", "b"))
        assert decision_key([s1], set()) == decision_key([s2], set())

    def test_program_key_separates_mode_and_encoding(self):
        groundings = [(f("q", "a"), (f("R", "a", "b"),))]
        signature = frozenset({0})
        keys = {
            program_key(signature, enc, mode, groundings)
            for enc in ("repair", "figure1")
            for mode in ("certain", "possible")
        }
        assert len(keys) == 4


class TestCacheLayers:
    def test_program_layer_hit_miss_accounting(self):
        cache = SignatureProgramCache()
        key = program_key(frozenset({0}), "repair", "certain", [])
        assert cache.lookup_program(key) is None
        cache.store_program(key, [f("q", "a")])
        assert cache.lookup_program(key) == frozenset({f("q", "a")})
        assert cache.stats.program_misses == 1
        assert cache.stats.program_hits == 1

    def test_decision_layer_hit_miss_accounting(self):
        cache = SignatureProgramCache()
        signature = frozenset({0})
        key = decision_key([(f("R", "a", "b"),)], set())
        assert cache.lookup_decision(signature, "repair", "certain", key) is None
        cache.store_decision(signature, "repair", "certain", key, True)
        assert cache.lookup_decision(signature, "repair", "certain", key) is True
        # Same structure under the other mode is a distinct entry.
        assert cache.lookup_decision(signature, "repair", "possible", key) is None
        assert cache.stats.decision_misses == 2
        assert cache.stats.decision_hits == 1

    def test_clear_and_len(self):
        cache = SignatureProgramCache()
        cache.store_program(
            program_key(frozenset({0}), "repair", "certain", []), []
        )
        cache.store_decision(
            frozenset({0}), "repair", "certain",
            decision_key([], set()), False,
        )
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0


class TestBoundedLru:
    def pk(self, n):
        return program_key(frozenset({n}), "repair", "certain", [])

    def test_rejects_zero_capacity(self):
        import pytest

        with pytest.raises(ValueError, match="max_programs"):
            SignatureProgramCache(max_programs=0)
        with pytest.raises(ValueError, match="max_decisions"):
            SignatureProgramCache(max_decisions=0)

    def test_program_layer_evicts_least_recently_used(self):
        cache = SignatureProgramCache(max_programs=2)
        cache.store_program(self.pk(0), [f("q", "a")])
        cache.store_program(self.pk(1), [f("q", "b")])
        # Touch key 0 so key 1 becomes the LRU victim.
        assert cache.lookup_program(self.pk(0)) is not None
        cache.store_program(self.pk(2), [f("q", "c")])
        assert cache.stats.program_evictions == 1
        assert cache.lookup_program(self.pk(1)) is None
        assert cache.lookup_program(self.pk(0)) == frozenset({f("q", "a")})
        assert cache.lookup_program(self.pk(2)) == frozenset({f("q", "c")})

    def test_decision_layer_evicts_least_recently_used(self):
        cache = SignatureProgramCache(max_decisions=1)
        k1 = decision_key([(f("R", "a", "b"),)], set())
        k2 = decision_key([(f("R", "a", "c"),)], set())
        cache.store_decision(frozenset({0}), "repair", "certain", k1, True)
        cache.store_decision(frozenset({0}), "repair", "certain", k2, False)
        assert cache.stats.decision_evictions == 1
        assert (
            cache.lookup_decision(frozenset({0}), "repair", "certain", k1)
            is None
        )
        assert (
            cache.lookup_decision(frozenset({0}), "repair", "certain", k2)
            is False
        )

    def test_restore_refreshes_recency(self):
        cache = SignatureProgramCache(max_programs=2)
        cache.store_program(self.pk(0), [])
        cache.store_program(self.pk(1), [])
        cache.store_program(self.pk(0), [f("q", "z")])  # re-store: refresh
        cache.store_program(self.pk(2), [])
        assert cache.lookup_program(self.pk(1)) is None
        assert cache.lookup_program(self.pk(0)) == frozenset({f("q", "z")})

    def test_eviction_metrics_hook(self):
        from repro.obs.metrics import Metrics

        cache = SignatureProgramCache(max_programs=1, max_decisions=1)
        cache.metrics = Metrics()
        cache.store_program(self.pk(0), [])
        cache.store_program(self.pk(1), [])
        cache.store_decision(
            frozenset({0}), "repair", "certain", decision_key([], set()), True
        )
        cache.store_decision(
            frozenset({1}), "repair", "certain",
            decision_key([(f("R", "a", "b"),)], set()), False,
        )
        counters = cache.metrics.counter_values()
        assert counters["cache_program_evictions_total"] == 1
        assert counters["cache_decision_evictions_total"] == 1

    def test_answers_unchanged_at_capacity(self):
        query_texts = [
            "q(x) :- P(x, y).",
            "r(x, y) :- P(x, y).",
            "s(y) :- P(x, y).",
        ]
        unbounded = SegmentaryEngine(
            key_mapping(), Instance(CONFLICT_INSTANCE)
        )
        expected = [
            unbounded.answer(parse_query(text)) for text in query_texts
        ]
        tiny = SignatureProgramCache(max_programs=1, max_decisions=1)
        bounded = SegmentaryEngine(
            key_mapping(), Instance(CONFLICT_INSTANCE), cache=tiny
        )
        got = [bounded.answer(parse_query(text)) for text in query_texts]
        assert got == expected
        assert len(tiny) <= 2
        assert (
            tiny.stats.program_evictions + tiny.stats.decision_evictions > 0
        )


class TestEngineIntegration:
    def test_warm_repeat_skips_solving(self):
        engine = SegmentaryEngine(key_mapping(), Instance(CONFLICT_INSTANCE))
        query = parse_query("q(x) :- P(x, y).")
        cold = engine.answer(query)
        cold_stats = engine.last_query_stats
        assert cold_stats.programs_solved > 0
        assert cold_stats.cache_hits == 0
        warm = engine.answer(query)
        warm_stats = engine.last_query_stats
        assert warm == cold == {("a",), ("d",)}
        assert warm_stats.programs_solved == 0
        assert warm_stats.cache_hits > 0

    def test_warm_program_cache_hit_stores_nothing(self, monkeypatch):
        """A group the program cache answers is not written back: only a
        group that missed gets a ``store_program`` call."""
        stored = []
        store_program = SignatureProgramCache.store_program

        def spy(cache, key, accepted):
            stored.append(key)
            store_program(cache, key, accepted)

        monkeypatch.setattr(SignatureProgramCache, "store_program", spy)
        engine = SegmentaryEngine(key_mapping(), Instance(CONFLICT_INSTANCE))
        query = parse_query("q(x) :- P(x, y).")
        cold = engine.answer(query)
        assert engine.last_query_stats.signatures == 1
        assert len(stored) == 1
        warm = engine.answer(query)
        assert warm == cold
        assert engine.last_query_stats.cache_hits > 0
        assert len(stored) == 1

    def test_decision_memo_shared_across_query_names(self):
        engine = SegmentaryEngine(key_mapping(), Instance(CONFLICT_INSTANCE))
        first = engine.answer(parse_query("q(x) :- P(x, y)."))
        # Different predicate name, same candidate structure: the program
        # cache misses but every decision comes from the memo.
        second = engine.answer(parse_query("r(x) :- P(x, y)."))
        stats = engine.last_query_stats
        assert second == first
        assert stats.programs_solved == 0
        assert stats.memo_hits > 0

    def test_certain_and_possible_do_not_cross_pollute(self):
        engine = SegmentaryEngine(key_mapping(), Instance(CONFLICT_INSTANCE))
        certain = engine.answer(parse_query("q(x, y) :- P(x, y)."))
        possible = engine.possible_answers(parse_query("q(x, y) :- P(x, y)."))
        assert certain == {("d", "e")}
        assert possible == {("a", "b"), ("a", "c"), ("d", "e")}

    def test_cache_disabled(self):
        engine = SegmentaryEngine(
            key_mapping(), Instance(CONFLICT_INSTANCE), cache=False
        )
        query = parse_query("q(x) :- P(x, y).")
        first = engine.answer(query)
        solved_first = engine.last_query_stats.programs_solved
        second = engine.answer(query)
        stats = engine.last_query_stats
        assert first == second
        assert stats.programs_solved == solved_first > 0
        assert stats.cache_hits == stats.memo_hits == 0

    def test_shared_cache_instance(self):
        cache = SignatureProgramCache()
        engine = SegmentaryEngine(
            key_mapping(), Instance(CONFLICT_INSTANCE), cache=cache
        )
        engine.answer(parse_query("q(x) :- P(x, y)."))
        assert engine.cache is cache
        assert len(cache) > 0
