"""Family grouping and its interaction with the caches.

Signature groups that share a violation cluster are merged into one
family by default; ``solve_strategy="per-signature"`` keeps every group
its own family.  The caches are keyed per *signature* under both
groupings — the family program is a solving vehicle, never a cache key —
so warm entries must be shared across groupings, LRU bounds must hold
when families write them, cluster-keyed invalidation must behave
identically, and a family member whose verdicts are only partial must
never be cached.
"""

from repro.incremental import Delta
from repro.parser import parse_mapping, parse_query
from repro.relational import Fact, Instance
from repro.runtime.cache import SignatureProgramCache
from repro.runtime.executor import SolveOutcome
from repro.xr.segmentary import SegmentaryEngine


def f(rel, *args):
    return Fact(rel, args)


CONFLICT_INSTANCE = [f("R", "a", "b"), f("R", "a", "c"), f("R", "d", "e")]

QUERY_TEXTS = [
    "q(x) :- P(x, y).",
    "r(x, y) :- P(x, y).",
    "s(y) :- P(x, y).",
]


def key_mapping():
    return parse_mapping(
        """
        SOURCE R/2. TARGET P/2.
        R(x, y) -> P(x, y).
        P(x, y), P(x, z) -> y = z.
        """
    )


def bridge_mapping():
    return parse_mapping(
        """
        SOURCE R/2, B/2.
        TARGET P/2.
        R(x, y) -> P(x, y).
        B(x, y) -> P(x, y), P(y, x).
        P(x, y), P(x, z) -> y = z.
        """
    )


TWO_CONFLICTS = [
    f("R", "a", "b"),
    f("R", "a", "c"),
    f("R", "d", "e"),
    f("R", "d", "g"),
]


class TestFamilyGrouping:
    # Candidates q('a') (signature {c_a}) and q('d') (signature
    # {c_a, c_d}): the groups share cluster c_a.
    QUERY = parse_query("q(z) :- P('a', y), P(z, w).")

    def solve(self, strategy, mode):
        with SegmentaryEngine(
            key_mapping(), Instance(TWO_CONFLICTS),
            cache=False, solve_strategy=strategy,
        ) as engine:
            return engine.answer_with_stats(self.QUERY, mode=mode)

    def test_shared_cluster_merges_groups_into_one_family(self):
        for mode in ("certain", "possible"):
            merged, merged_stats = self.solve("incremental", mode)
            split, split_stats = self.solve("per-signature", mode)
            assert merged_stats.signatures == split_stats.signatures == 2
            assert merged_stats.families_solved == 1
            assert split_stats.families_solved == 2
            assert merged == split == {("a",), ("d",)}


class TestCrossStrategySharing:
    def test_per_signature_warms_the_incremental_engine(self):
        cache = SignatureProgramCache()
        query = parse_query("q(x) :- P(x, y).")
        with SegmentaryEngine(
            key_mapping(), Instance(CONFLICT_INSTANCE),
            cache=cache, solve_strategy="per-signature",
        ) as ungrouped:
            cold = ungrouped.answer(query)
            assert ungrouped.last_query_stats.programs_solved > 0
        with SegmentaryEngine(
            key_mapping(), Instance(CONFLICT_INSTANCE),
            cache=cache, solve_strategy="incremental",
        ) as warm:
            answers = warm.answer(query)
            stats = warm.last_query_stats
        assert answers == cold
        assert stats.programs_solved == 0
        assert stats.cache_hits > 0

    def test_incremental_warms_the_per_signature_engine(self):
        cache = SignatureProgramCache()
        query = parse_query("q(x) :- P(x, y).")
        with SegmentaryEngine(
            key_mapping(), Instance(CONFLICT_INSTANCE),
            cache=cache, solve_strategy="incremental",
        ) as family:
            cold = family.answer(query)
            assert family.last_query_stats.families_solved > 0
        with SegmentaryEngine(
            key_mapping(), Instance(CONFLICT_INSTANCE),
            cache=cache, solve_strategy="per-signature",
        ) as ungrouped:
            answers = ungrouped.answer(query)
            stats = ungrouped.last_query_stats
        assert answers == cold
        assert stats.programs_solved == 0
        assert stats.cache_hits > 0

    def test_memo_shared_across_strategies_and_query_names(self):
        cache = SignatureProgramCache()
        with SegmentaryEngine(
            key_mapping(), Instance(CONFLICT_INSTANCE),
            cache=cache, solve_strategy="incremental",
        ) as family:
            first = family.answer(parse_query("q(x) :- P(x, y)."))
        with SegmentaryEngine(
            key_mapping(), Instance(CONFLICT_INSTANCE),
            cache=cache, solve_strategy="per-signature",
        ) as ungrouped:
            # Different predicate name: the program cache misses but the
            # structural decision memo — written by the family run — hits.
            second = ungrouped.answer(parse_query("r(x) :- P(x, y)."))
            stats = ungrouped.last_query_stats
        assert second == first
        assert stats.programs_solved == 0
        assert stats.memo_hits > 0


class TestFamilyLruBounds:
    def test_family_entries_respect_tiny_bounds(self):
        expected = []
        with SegmentaryEngine(
            key_mapping(), Instance(CONFLICT_INSTANCE),
            solve_strategy="incremental",
        ) as unbounded:
            expected = [
                unbounded.answer(parse_query(text)) for text in QUERY_TEXTS
            ]
        tiny = SignatureProgramCache(max_programs=1, max_decisions=1)
        with SegmentaryEngine(
            key_mapping(), Instance(CONFLICT_INSTANCE),
            cache=tiny, solve_strategy="incremental",
        ) as bounded:
            got = [bounded.answer(parse_query(text)) for text in QUERY_TEXTS]
        assert got == expected
        assert len(tiny) <= 2
        assert tiny.stats.program_evictions + tiny.stats.decision_evictions > 0


class TestFamilyInvalidation:
    QUERY = parse_query("q(x, y) :- P(x, y).")

    def warm_engine(self, instance_facts):
        engine = SegmentaryEngine(
            bridge_mapping(), Instance(instance_facts),
            solve_strategy="incremental",
        )
        engine.answer(self.QUERY)
        assert len(engine.cache) > 0
        return engine

    def reference(self, instance_facts):
        # Cross-grouping reference: one family per signature, fresh engine.
        with SegmentaryEngine(
            bridge_mapping(), Instance(instance_facts),
            solve_strategy="per-signature", cache=False,
        ) as engine:
            return engine.answer(self.QUERY)

    def test_merge_retires_family_entries(self):
        engine = self.warm_engine(TWO_CONFLICTS)
        session = engine.update_session()
        report = session.apply(Delta(inserts=frozenset({f("B", "a", "d")})))
        assert report.cache_invalidated > 0
        updated = TWO_CONFLICTS + [f("B", "a", "d")]
        assert engine.answer(self.QUERY) == self.reference(updated)

    def test_split_reanswers_correctly(self):
        merged = TWO_CONFLICTS + [f("B", "a", "d")]
        engine = self.warm_engine(merged)
        session = engine.update_session()
        session.apply(Delta(retracts=frozenset({f("B", "a", "d")})))
        assert engine.answer(self.QUERY) == self.reference(TWO_CONFLICTS)

    def test_emptied_cluster_with_surviving_neighbor_entries(self):
        engine = self.warm_engine(TWO_CONFLICTS)
        session = engine.update_session()
        report = session.apply(Delta(retracts=frozenset({f("R", "a", "c")})))
        assert report.cache_invalidated > 0
        remaining = [x for x in TWO_CONFLICTS if x != f("R", "a", "c")]
        answers = engine.answer(self.QUERY)
        stats = engine.last_query_stats
        # The untouched 'd' cluster's entries survived: nothing re-solves.
        assert stats.programs_solved == 0
        assert answers == self.reference(remaining)


class _PartialExecutor:
    """A stub executor that cuts every family off mid-solve: one atom per
    task stays undecided, the rest are (claimed) rejected."""

    name = "stub"
    last_dispatch = "sequential"

    def run(self, tasks, deadline=None):
        outcomes = []
        for task in tasks:
            atoms = sorted(task.query_atom_ids)
            outcomes.append(
                SolveOutcome(
                    decided=frozenset(),
                    rejected=frozenset(atoms[1:]),
                    undecided=frozenset(atoms[:1]),
                    status="timeout",
                )
            )
        return outcomes

    def close(self):
        pass


class TestPartialFamiliesNeverCached:
    def test_partially_decided_member_writes_nothing(self):
        cache = SignatureProgramCache()
        engine = SegmentaryEngine(
            key_mapping(), Instance(CONFLICT_INSTANCE),
            cache=cache, executor=_PartialExecutor(),
            solve_strategy="incremental",
        )
        query = parse_query("q(x, y) :- P(x, y).")
        answers = engine.answer(query, allow_partial=True)
        stats = engine.last_query_stats
        assert stats.degraded
        assert len(stats.unknown_candidates) == 1
        # The safe candidate is still answered; the suspect group, being
        # only partially decided, left no trace in either cache layer.
        assert ("d", "e") in answers
        assert len(cache) == 0
