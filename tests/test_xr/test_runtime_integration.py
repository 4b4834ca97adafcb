"""Runtime integration: parallel == sequential, warm caching, stats contract.

The acceptance bar for the runtime subsystem: reader threads answering in
parallel on one shared engine return byte-identical answer sets to a
private engine answering sequentially — on the genome profiles, on the
quickstart mapping, and on the three-colorability gadget — and a warm
engine answering a repeated query hits the cache and spends strictly less
query-phase time than the cold run.
"""

import importlib.util
import pathlib
import threading

import pytest

from repro.genomics.instances import INSTANCE_PROFILES, build_instance
from repro.genomics.queries import QUERY_SUITE, query_by_name
from repro.genomics.schema import genome_mapping
from repro.parser import parse_mapping, parse_query
from repro.reduction.reduce import reduce_mapping
from repro.relational import Fact, Instance
from repro.relational.queries import Atom, ConjunctiveQuery
from repro.relational.terms import Const
from repro.xr.segmentary import SegmentaryEngine

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_example(name):
    path = REPO_ROOT / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def f(rel, *args):
    return Fact(rel, args)


def answer_in_threads(engine, calls, threads=4):
    """Run every ``(method, query)`` call from ``threads`` threads at once
    on ``engine``; returns each thread's results in call order."""
    results, errors = [None] * threads, []
    barrier = threading.Barrier(threads)

    def reader(index):
        try:
            barrier.wait()
            results[index] = [
                getattr(engine, method)(query) for method, query in calls
            ]
        except BaseException as exc:  # noqa: BLE001 — the assertion channel
            errors.append(exc)

    workers = [threading.Thread(target=reader, args=(i,)) for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=600)
        assert not worker.is_alive()
    if errors:
        raise errors[0]
    return results


@pytest.fixture(scope="module")
def genome_setup():
    reduced = reduce_mapping(genome_mapping())
    instance = build_instance(INSTANCE_PROFILES["S3"]).instance
    return reduced, instance


class TestParallelMatchesSequential:
    @pytest.mark.slow
    def test_genome_profile_s3(self, genome_setup):
        reduced, instance = genome_setup
        calls = [
            (method, query_by_name(name))
            for name in QUERY_SUITE
            for method in ("answer", "possible_answers")
        ]
        sequential = SegmentaryEngine(reduced, instance)
        expected = [getattr(sequential, m)(q) for m, q in calls]
        shared = SegmentaryEngine(reduced, instance)
        for got in answer_in_threads(shared, calls):
            assert got == expected

    def test_quickstart_mapping(self):
        # The examples/quickstart.py setting: a key conflict on ada's office.
        mapping = parse_mapping(
            """
            SOURCE Employee/2, Badge/2.
            TARGET Office/2, Access/2.
            Employee(name, office) -> Office(name, office).
            Badge(name, room)      -> Access(name, room).
            Office(name, o1), Office(name, o2) -> o1 = o2.
            """
        )
        instance = Instance(
            [
                f("Employee", "ada", "E14"),
                f("Employee", "ada", "W02"),
                f("Employee", "bob", "E15"),
                f("Badge", "ada", "server-room"),
            ]
        )
        queries = [
            "q(name) :- Office(name, office).",
            "q(n, o) :- Office(n, o).",
            "q(n) :- Access(n, 'server-room').",
            "q() :- Office(n, o).",
        ]
        calls = [("answer", parse_query(text)) for text in queries]
        sequential = SegmentaryEngine(mapping, instance)
        expected = [sequential.answer(query) for _, query in calls]
        # Ground truth from the example: only bob's row is certain.
        assert expected[1] == {("bob", "E15")}
        shared = SegmentaryEngine(mapping, instance, cache=False)
        for got in answer_in_threads(shared, calls):
            assert got == expected

    @pytest.mark.slow
    def test_three_colorability_gadget(self):
        example = load_example("three_colorability")
        mapping = example.theorem3_mapping()
        instance, closing = example.encode_graph(
            "abc", [("a", "b"), ("b", "c"), ("a", "c")]
        )
        query = ConjunctiveQuery(
            [], [Atom("Fp", (Const(closing), Const(1)))], name="keeps_f"
        )
        answers = SegmentaryEngine(mapping, instance).answer(query)
        # K3 is 3-colorable, so the closing fact is not certain.
        assert answers == set()
        shared = SegmentaryEngine(mapping, instance, cache=False)
        for got in answer_in_threads(shared, [("answer", query)], threads=2):
            assert got == [answers]


class TestWarmCache:
    def test_repeat_query_hits_cache_and_is_faster(self, genome_setup):
        reduced, instance = genome_setup
        engine = SegmentaryEngine(reduced, instance)
        query = query_by_name("xr2")
        cold_answers, cold = engine.answer_with_stats(query)
        assert cold.programs_solved > 0
        warm_answers, warm = engine.answer_with_stats(query)
        assert warm_answers == cold_answers
        assert warm.cache_hits > 0
        assert warm.programs_solved == 0
        # Cache hits skip program construction and solving entirely; the
        # warm pass is pure grouping + dictionary lookups.
        assert warm.seconds < cold.seconds


class TestTriviallyCertainHoist:
    def test_accepted_even_with_loosened_invariant(self, monkeypatch):
        """Regression for the ordering bug: trivially-certain candidates
        must be folded into the answer *before* any empty-goals guard, so
        they survive even if the query part (``family_query_part``) ever
        loosens the invariant ``trivially_certain ⊆ bodies``."""
        import repro.xr.segmentary as seg

        real_part = seg.family_query_part

        def loosened(*args, **kwargs):
            part = real_part(*args, **kwargs)
            # Pretend every candidate was recognized as trivially certain
            # and stripped from the solvable candidates.
            part.trivially_certain.update(part.bodies)
            part.bodies.clear()
            return part

        monkeypatch.setattr(seg, "family_query_part", loosened)
        mapping = parse_mapping(
            """
            SOURCE R/2. TARGET P/2.
            R(x, y) -> P(x, y).
            P(x, y), P(x, z) -> y = z.
            """
        )
        instance = Instance([f("R", "a", "b"), f("R", "a", "c")])
        engine = SegmentaryEngine(mapping, instance, cache=False)
        answers = engine.answer(parse_query("q(x) :- P(x, y)."))
        assert ("a",) in answers
        assert engine.last_query_stats.programs_solved == 0


class TestStatsContract:
    def test_stats_published_once_and_fresh_per_call(self):
        mapping = parse_mapping(
            """
            SOURCE R/2. TARGET P/2.
            R(x, y) -> P(x, y).
            P(x, y), P(x, z) -> y = z.
            """
        )
        instance = Instance([f("R", "a", "b"), f("R", "a", "c")])
        engine = SegmentaryEngine(mapping, instance, cache=False)
        _, first = engine.answer_with_stats(parse_query("q(x) :- P(x, y)."))
        # The accessor agrees with the returned stats by value, but hands
        # out an independent copy: mutating it cannot corrupt the engine.
        published = engine.last_query_stats
        assert published == first
        assert published is not first
        published.programs_solved = -1
        published.solver_stats["conflicts"] = -1
        published.unknown_candidates.add(("poisoned",))
        assert engine.last_query_stats == first
        snapshot = first.programs_solved
        _, second = engine.answer_with_stats(parse_query("q(y) :- P(x, y)."))
        assert engine.last_query_stats == second
        assert second is not first
        # The earlier stats object is immutable history, not a live view.
        assert first.programs_solved == snapshot

    def test_stats_carry_runtime_observability(self):
        mapping = parse_mapping(
            """
            SOURCE R/2. TARGET P/2.
            R(x, y) -> P(x, y).
            P(x, y), P(x, z) -> y = z.
            """
        )
        instance = Instance([f("R", "a", "b"), f("R", "a", "c")])
        engine = SegmentaryEngine(mapping, instance)
        _, stats = engine.answer_with_stats(parse_query("q(x) :- P(x, y)."))
        assert stats.programs_solved == len(stats.program_seconds)
        assert stats.solve_seconds == pytest.approx(sum(stats.program_seconds))
        assert stats.seconds >= stats.solve_seconds
        if stats.programs_solved:
            assert "conflicts" in stats.solver_stats
