"""Graceful degradation under budgets and injected cutoffs (engine level).

The contract under test (DESIGN §9): with ``allow_partial=True`` a budget
can only move candidates into the *unknown* set, never flip a verdict —
degraded-certain ⊆ exact-certain ⊆ degraded-certain ∪ unknown, and
exact-possible ⊆ degraded-possible ⊆ exact-possible ∪ unknown.  Without a
budget, behavior is bit-identical to the pre-budget engine.

The cutoffs are real: :class:`~repro.fuzz.faults.CutoffInjectingExecutor`
solves the planned families under a deadline that has already passed, so
the solver stops at its first cooperative check, exactly as it does when
a configured budget runs out.
"""

import pytest

from repro.fuzz.faults import (
    CutoffAfterChecks,
    CutoffInjectingExecutor,
    FaultPlan,
)
from repro.parser import parse_mapping, parse_query
from repro.relational import Fact, Instance
from repro.runtime import (
    SequentialExecutor,
    SignatureProgramCache,
    SolveBudget,
    SolveBudgetExceeded,
)
from repro.xr.monolithic import MonolithicEngine
from repro.xr.segmentary import SegmentaryEngine


def key_mapping():
    return parse_mapping(
        """
        SOURCE R/2. TARGET P/2.
        R(x, y) -> P(x, y).
        P(x, y), P(x, z) -> y = z.
        """
    )


def two_cluster_instance() -> Instance:
    """Two structurally-distinct key-violation clusters (so the query
    phase builds two signature programs) plus one safe fact."""
    return Instance(
        [
            Fact("R", ("k0", "v0")), Fact("R", ("k0", "v1")),
            Fact("R", ("k1", "v0")), Fact("R", ("k1", "v1")),
            Fact("R", ("k1", "v2")),
            Fact("R", ("safe", "v")),
        ]
    )


QUERY = "q(x) :- P(x, y)."
EXACT = {("k0",), ("k1",), ("safe",)}  # certain == possible here

CUT_FIRST = FaultPlan(cut_on=frozenset({0}))


def degraded_engine(plan: FaultPlan = CUT_FIRST, **kwargs):
    return SegmentaryEngine(
        key_mapping(), two_cluster_instance(),
        executor=CutoffInjectingExecutor(plan), **kwargs
    )


class TestSegmentaryDegradation:
    def test_cutoff_gives_sound_partial_certain(self):
        query = parse_query(QUERY)
        with degraded_engine(cache=False) as engine:
            answers, stats = engine.answer_with_stats(
                query, mode="certain", allow_partial=True
            )
        assert stats.degraded
        assert stats.timeouts == 1
        assert stats.unknown_candidates  # the cut family, reported not dropped
        assert answers < EXACT  # sound under-approximation, strictly partial
        assert ("safe",) in answers  # trivially-certain floor survives
        assert answers | stats.unknown_candidates >= EXACT  # nothing vanished

    def test_cutoff_gives_sound_partial_possible(self):
        query = parse_query(QUERY)
        with degraded_engine(cache=False) as engine:
            answers, stats = engine.answer_with_stats(
                query, mode="possible", allow_partial=True
            )
        assert stats.degraded
        # Possible mode conservatively *includes* the unknowns.
        assert answers >= EXACT
        assert answers <= EXACT | stats.unknown_candidates

    def test_every_family_cut_leaves_only_the_safe_floor(self):
        query = parse_query(QUERY)
        with degraded_engine(FaultPlan(cut_on=frozenset({0, 1}))) as engine:
            answers, stats = engine.answer_with_stats(
                query, mode="certain", allow_partial=True
            )
        assert answers == {("safe",)}
        assert stats.timeouts == 2
        assert stats.unknown_candidates == EXACT - {("safe",)}

    def test_expired_query_deadline_degrades_before_any_solve(self):
        query = parse_query(QUERY)
        budget = SolveBudget(deadline=1e-9)
        with SegmentaryEngine(
            key_mapping(), two_cluster_instance(), budget=budget
        ) as engine:
            answers, stats = engine.answer_with_stats(
                query, mode="certain", allow_partial=True
            )
        assert stats.degraded
        assert answers <= EXACT
        assert answers | stats.unknown_candidates >= EXACT

    def test_allow_partial_false_raises(self):
        query = parse_query(QUERY)
        with degraded_engine(cache=False) as engine:
            with pytest.raises(SolveBudgetExceeded):
                engine.answer(query)

    def test_unknowns_are_never_cached(self):
        query = parse_query(QUERY)
        cache = SignatureProgramCache()
        with degraded_engine(cache=cache) as engine:
            degraded, stats = engine.answer_with_stats(
                query, mode="certain", allow_partial=True
            )
        assert stats.degraded
        # A clean engine sharing the same cache must still solve the
        # skipped group itself and reach the exact answers: a timeout must
        # not have been recorded as a verdict.
        with SegmentaryEngine(
            key_mapping(), two_cluster_instance(), cache=cache
        ) as clean:
            exact = clean.answer(query)
            assert clean.last_query_stats.programs_solved >= 1
        assert exact == EXACT

    @pytest.mark.parametrize("allow_partial", [True, False])
    def test_a_cut_keeps_the_engines_of_cleanly_solved_families(
        self, allow_partial
    ):
        """Cutting the first family drops its engine only: the second
        family's engine, solved cleanly, goes back to the store whether
        the call degrades or raises."""
        query = parse_query(QUERY)
        cache = SignatureProgramCache()
        with degraded_engine(cache=cache) as engine:
            if allow_partial:
                engine.answer(query, allow_partial=True)
            else:
                with pytest.raises(SolveBudgetExceeded):
                    engine.answer(query)
        assert len(cache.engine_keys()) == 1

    def test_no_budget_is_bit_identical(self):
        query = parse_query(QUERY)
        with SegmentaryEngine(key_mapping(), two_cluster_instance()) as engine:
            answers, stats = engine.answer_with_stats(query, mode="certain")
        assert answers == EXACT
        assert not stats.degraded
        assert stats.timeouts == 0
        assert stats.unknown_candidates == set()


class TestExecutorOwnership:
    def test_engine_closes_the_executor_it_created(self):
        engine = SegmentaryEngine(key_mapping(), two_cluster_instance())
        assert engine._owns_executor
        with engine:
            pass  # exchange not even run; close must still be safe

    def test_engine_leaves_a_shared_executor_open(self):
        class Spy(SequentialExecutor):
            closed = False

            def close(self):
                self.closed = True

        spy = Spy()
        with SegmentaryEngine(
            key_mapping(), two_cluster_instance(), executor=spy
        ) as engine:
            assert not engine._owns_executor
        assert not spy.closed  # the owner (this test) closes it, not the engine
        spy.close()


class TestMonolithicDegradation:
    def test_budget_cutoff_reports_unknowns(self):
        query = parse_query(QUERY)
        budget = SolveBudget(task_timeout=1e-9)
        engine = MonolithicEngine(key_mapping(), two_cluster_instance(),
                                  budget=budget)
        certain = engine.answer(query, allow_partial=True)
        assert engine.last_stats.degraded
        unknown = engine.last_stats.unknown_candidates
        assert certain <= EXACT
        assert certain | unknown >= EXACT
        possible = engine.possible_answers(query, allow_partial=True)
        assert possible >= EXACT
        assert possible <= EXACT | engine.last_stats.unknown_candidates

    @pytest.mark.parametrize("mode", ["certain", "possible"])
    def test_cut_mid_solve_keeps_the_decided_verdicts(self, mode):
        """Cut the one solve at every cooperative check in turn: each cut
        brackets the exact answers, and a cut after the first model
        reports fewer unknowns than a cut at the first check (which has
        decided nothing): the verdicts reached before a cut are kept."""
        query = parse_query("q(x, y) :- P(x, y).")

        def answer(budget=None):
            engine = MonolithicEngine(key_mapping(), two_cluster_instance(),
                                      budget=budget)
            ask = engine.answer if mode == "certain" else engine.possible_answers
            return ask(query, allow_partial=True), engine.last_stats

        exact, _stats = answer()
        _answers, first_cut = answer(CutoffAfterChecks(passes=0))
        undecided = first_cut.unknown_candidates
        assert first_cut.degraded and undecided
        narrower = 0
        for passes in range(10_000):
            answers, stats = answer(CutoffAfterChecks(passes=passes))
            if not stats.degraded:  # the cut fell past the last check
                assert answers == exact
                break
            unknown = stats.unknown_candidates
            assert unknown <= undecided
            if mode == "certain":
                assert answers <= exact <= answers | unknown
            else:
                assert answers - unknown <= exact <= answers
            narrower += unknown < undecided
        else:
            pytest.fail("the solve never finished")
        assert narrower

    def test_allow_partial_false_raises(self):
        query = parse_query(QUERY)
        engine = MonolithicEngine(key_mapping(), two_cluster_instance(),
                                  budget=SolveBudget(task_timeout=1e-9))
        with pytest.raises(SolveBudgetExceeded):
            engine.answer(query)

    def test_no_budget_is_exact(self):
        query = parse_query(QUERY)
        engine = MonolithicEngine(key_mapping(), two_cluster_instance())
        assert engine.answer(query) == EXACT
        assert not engine.last_stats.degraded
