"""The family engine store of :class:`SignatureProgramCache`.

One engine per cluster family, built once and decided on by every query
and mode.  These tests pin what keeping engines must not change: answers
after a budget cut, under concurrent readers, under LRU eviction and
without a cache; and what the stats report on a reused engine.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.fuzz.faults import CutoffAfterChecks
from repro.parser import parse_mapping, parse_program
from repro.relational import Fact, Instance
from repro.runtime import SequentialExecutor, SignatureProgramCache
from repro.runtime import executor as executor_module
from repro.runtime.executor import solve_task
from repro.xr.segmentary import SegmentaryEngine

MAPPING = parse_mapping(
    """
    SOURCE R/2, S/2. TARGET P/2, Q/2.
    R(x, y) -> P(x, y).
    S(x, y) -> Q(x, y).
    P(x, y), P(x, z) -> y = z.
    P(x, y), Q(y, z) -> x = z.
    """
)

#: Two independent conflict families: key clashes on 'a' (with a cross
#: egd through Q) and on 'k'.
INSTANCE = Instance(
    [
        Fact("R", ("a", "b")), Fact("R", ("a", "c")), Fact("R", ("a", "d")),
        Fact("S", ("b", "a")), Fact("S", ("c", "z")), Fact("S", ("d", "a")),
        Fact("R", ("k", "v")), Fact("R", ("k", "w")),
        Fact("R", ("m", "n")),
    ]
)

QUERIES = [
    parse_program(text)
    for text in (
        "q(x, y) :- P(x, y).",
        "q(x) :- P(x, y), Q(y, x).",
        "q(y) :- P(x, y).",
        "q() :- P(x, y), Q(y, z).",
    )
]
MODES = ("certain", "possible")


def answer_all(engine) -> list:
    return [
        engine.answer_with_stats(query, mode=mode)[0]
        for query in QUERIES
        for mode in MODES
    ]


@pytest.fixture(scope="module")
def exact() -> list:
    with SegmentaryEngine(MAPPING, INSTANCE, cache=False) as engine:
        return answer_all(engine)


class TestReuse:
    def test_one_engine_per_family_serves_every_query_and_mode(self, exact):
        cache = SignatureProgramCache()
        with SegmentaryEngine(MAPPING, INSTANCE, cache=cache) as engine:
            built = reused = 0
            answers = []
            for query in QUERIES:
                for mode in MODES:
                    rows, stats = engine.answer_with_stats(query, mode=mode)
                    answers.append(rows)
                    built += stats.engines_built
                    reused += stats.engine_reuses
        assert answers == exact
        assert built == len(cache.engine_keys()) == 2
        assert reused > 0
        assert cache.stats.engine_reuses == reused

    def test_cache_false_gives_the_same_answers(self, exact):
        with SegmentaryEngine(MAPPING, INSTANCE, cache=True) as engine:
            assert answer_all(engine) == exact
        with SegmentaryEngine(MAPPING, INSTANCE, cache=False) as engine:
            for query in QUERIES:
                _rows, stats = engine.answer_with_stats(query)
                # No store: every family solve builds its own engine.
                assert stats.engine_reuses == 0
                assert stats.engines_built == stats.families_solved


class TestBudgetCut:
    @pytest.mark.parametrize("passes", range(6))
    def test_cut_engine_is_dropped_and_answers_stay_exact(
        self, passes, exact, monkeypatch
    ):
        """A one-shot cut at the ``passes``-th cooperative check of the
        first family solve: that engine never goes back to the store, and
        the next queries on the same cache are exact."""
        fired = []
        real_deadline = executor_module.Deadline

        class OneCut:
            @staticmethod
            def tightest(timeout=None, at=None):
                if fired:
                    return real_deadline.tightest(timeout, at)
                fired.append(True)
                return CutoffAfterChecks(passes=passes).single_solve_deadline()

        cache = SignatureProgramCache()
        cut = SequentialExecutor()
        with SegmentaryEngine(
            MAPPING, INSTANCE, cache=cache, executor=cut
        ) as engine:
            monkeypatch.setattr(executor_module, "Deadline", OneCut)
            keys = []
            real_solve = executor_module.solve_task

            def spy(task, *args, **kwargs):
                outcome = real_solve(task, *args, **kwargs)
                keys.append((task, outcome.status))
                return outcome

            monkeypatch.setattr(executor_module, "solve_task", spy)
            degraded, stats = engine.answer_with_stats(
                QUERIES[0], allow_partial=True
            )
            monkeypatch.undo()
            (first_task, status), *_rest = keys
            if passes == 0:
                assert status == "timeout"  # the first check fires
            if status == "timeout":
                assert stats.degraded
                held = [family for family, _c in cache._engines.values()]
                assert first_task.family not in held
            assert degraded <= exact[0]
            assert answer_all(engine) == exact


class TestConcurrentReaders:
    def test_readers_never_share_an_engine(self, exact, monkeypatch):
        cache = SignatureProgramCache()
        engine = SegmentaryEngine(MAPPING, INSTANCE, cache=cache)
        engine.exchange()
        in_use: set[int] = set()
        lock = threading.Lock()
        shared: list[int] = []
        real_decide = executor_module.decide_family

        def guarded(program, goals, mode="cautious", engine=None, deadline=None):
            with lock:
                if id(engine) in in_use:
                    shared.append(id(engine))
                in_use.add(id(engine))
            try:
                return real_decide(
                    program, goals, mode=mode, engine=engine, deadline=deadline
                )
            finally:
                with lock:
                    in_use.discard(id(engine))

        monkeypatch.setattr(executor_module, "decide_family", guarded)
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def reader() -> None:
            try:
                barrier.wait()
                for _round in range(6):
                    # Drop the answers so every round solves on the store.
                    cache.clear_answers()
                    assert answer_all(engine) == exact
            except BaseException as error:  # noqa: BLE001 — reported below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        if errors:
            raise errors[0]
        assert shared == []
        assert cache.stats.engine_reuses > 0
        assert len(cache.engine_keys()) <= 2


class TestEviction:
    @pytest.mark.parametrize("bound", [1, 40, 10**9])
    def test_clause_bound_is_answer_neutral(self, bound, exact):
        cache = SignatureProgramCache()
        cache.max_engine_clauses = bound
        with SegmentaryEngine(MAPPING, INSTANCE, cache=cache) as engine:
            for _round in range(2):
                assert answer_all(engine) == exact
                cache.clear_answers()
                held = [count for _f, count in cache._engines.values()]
                assert sum(held) == cache._engine_clauses <= bound
                indexed = {k for ks in cache._engine_keys_of.values() for k in ks}
                assert indexed == set(cache._engines)
        if bound == 1:
            assert cache.stats.engine_evictions > 0
            assert cache.engine_keys() == []
        if bound == 10**9:
            assert cache.stats.engine_evictions == 0

    def test_invalidation_drops_exactly_the_retired_families(self):
        class Held:
            clauses = 10

        cache = SignatureProgramCache()
        keys = [((1, 2), "repair"), ((3,), "repair"), ((2, 4), "figure1")]
        for key in keys:
            _engine, epoch = cache.checkout_engine(key)
            cache.return_engine(key, Held(), epoch)
        checked_out, stale_epoch = cache.checkout_engine(((3,), "repair"))
        cache.invalidate_clusters([2, 9])
        assert cache.engine_keys() == []
        # Checked out before the invalidation: dropped on return.
        cache.return_engine(((3,), "repair"), checked_out, stale_epoch)
        assert cache.engine_keys() == []
        for key in keys:
            _engine, epoch = cache.checkout_engine(key)
            cache.return_engine(key, Held(), epoch)
        cache.invalidate_clusters([2])
        assert cache.engine_keys() == [((3,), "repair")]
        assert cache._engine_clauses == 10
        indexed = {k for ks in cache._engine_keys_of.values() for k in ks}
        assert indexed == {((3,), "repair")}


class TestPerSolveStats:
    def test_reused_engine_reports_per_solve_deltas(self, monkeypatch):
        """Each solve's stats are the growth of the engine's counters
        during that solve, not the engine's lifetime totals."""
        growth: list[dict] = []

        def measured(task, *args, **kwargs):
            before = task.family.engine.statistics
            outcome = solve_task(task, *args, **kwargs)
            after = task.family.engine.statistics
            growth.append(
                {key: after[key] - before[key] for key in ("conflicts",
                 "propagations", "decisions", "candidates_tested",
                 "carried_clauses")}
            )
            assert {k: outcome.solver_stats[k] for k in growth[-1]} == growth[-1]
            return outcome

        monkeypatch.setattr(executor_module, "solve_task", measured)
        cache = SignatureProgramCache()
        with SegmentaryEngine(MAPPING, INSTANCE, cache=cache) as engine:
            rounds = []
            for _round in range(3):
                growth.clear()
                _rows, stats = engine.answer_with_stats(QUERIES[0])
                rounds.append(stats)
                assert stats.carried_clauses == sum(
                    g["carried_clauses"] for g in growth
                )
                assert stats.solver_stats["propagations"] == sum(
                    g["propagations"] for g in growth
                )
                cache.clear_answers()
        assert rounds[1].engine_reuses > 0
        # The engine keeps what it learned, so a reused engine's solve is
        # never charged the first solve's work again.
        assert rounds[2].solver_stats["propagations"] <= (
            rounds[0].solver_stats["propagations"]
        )


def stored(engine) -> int:
    """How many stable models ``engine`` holds."""
    return sum(1 for _truths in engine.known_truths(()))


class TestStoredModels:
    """A family engine's stored stable models live and die with it: a
    reused engine harvests them, and an engine dropped by a budget cut
    or an invalidation takes them along."""

    @staticmethod
    def spy_solves(monkeypatch) -> list:
        solves = []
        real_solve = executor_module.solve_task

        def spy(task, *args, **kwargs):
            outcome = real_solve(task, *args, **kwargs)
            solves.append((task.family, outcome))
            return outcome

        monkeypatch.setattr(executor_module, "solve_task", spy)
        return solves

    @staticmethod
    def first_solves(solves) -> dict:
        first = {}
        for family, outcome in solves:
            first.setdefault(family, outcome)
        return first

    def test_reused_engine_harvests_its_models(self, exact, monkeypatch):
        solves = self.spy_solves(monkeypatch)
        with SegmentaryEngine(MAPPING, INSTANCE, cache=True) as engine:
            assert answer_all(engine) == exact
        first = self.first_solves(solves)
        # A new engine has nothing stored; a reused one harvests.
        assert all(o.solver_stats["known_models"] == 0 for o in first.values())
        assert all(o.solver_stats["family_models"] > 0 for o in first.values())
        assert any(o.solver_stats["known_models"] > 0 for _f, o in solves)

    def test_invalidation_drops_the_models(self, exact, monkeypatch):
        cache = SignatureProgramCache()
        with SegmentaryEngine(MAPPING, INSTANCE, cache=cache) as engine:
            assert answer_all(engine) == exact
            held = {family for family, _c in cache._engines.values()}
            assert held and all(stored(f.engine) for f in held)
            cache.invalidate_clusters(
                {cluster for key in cache.engine_keys() for cluster in key[0]}
            )
            assert cache.engine_keys() == []
            solves = self.spy_solves(monkeypatch)
            assert answer_all(engine) == exact
        first = self.first_solves(solves)
        assert first and held.isdisjoint(first)
        assert all(o.solver_stats["known_models"] == 0 for o in first.values())

    def test_budget_cut_drops_the_models(self, exact, monkeypatch):
        cache = SignatureProgramCache()
        with SegmentaryEngine(MAPPING, INSTANCE, cache=cache) as engine:
            engine.answer_with_stats(QUERIES[0])
            held = {family for family, _c in cache._engines.values()}
            assert held and all(stored(f.engine) for f in held)
            real_deadline = executor_module.Deadline
            fired = []

            class CutFirst:
                @staticmethod
                def tightest(timeout=None, at=None):
                    if fired:
                        return real_deadline.tightest(timeout, at)
                    fired.append(True)
                    return CutoffAfterChecks(passes=0).single_solve_deadline()

            solves = self.spy_solves(monkeypatch)
            monkeypatch.setattr(executor_module, "Deadline", CutFirst)
            # Its first family needs a steering search: the cut fires.
            engine.answer_with_stats(
                QUERIES[0], mode="possible", allow_partial=True
            )
            monkeypatch.setattr(executor_module, "Deadline", real_deadline)
            (cut, outcome), *_rest = solves
            assert outcome.status == "timeout"
            # A reused engine, holding models, that never goes back.
            assert cut in held
            assert cut not in {f for f, _c in cache._engines.values()}
            solves.clear()
            cache.clear_answers()
            assert answer_all(engine) == exact
        first = self.first_solves(solves)
        assert cut not in first
        rebuilt = [o for f, o in first.items() if f.focus_ids == cut.focus_ids]
        assert rebuilt and rebuilt[0].solver_stats["known_models"] == 0
