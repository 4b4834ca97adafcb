"""Boolean (0-ary) query coverage: ``set()`` vs ``{()}`` end to end.

A boolean query has exactly two XR-Certain answer sets — ``{()}`` (true in
every XR-solution) and ``set()`` (false in some) — and both must survive
every execution path: monolithic, segmentary, and the brute-force
repair-enumeration oracle.
"""

import pytest

from repro.parser import parse_mapping, parse_query
from repro.relational import Fact, Instance
from repro.xr.monolithic import MonolithicEngine
from repro.xr.oracle import xr_certain_oracle
from repro.xr.segmentary import SegmentaryEngine


def f(rel, *args):
    return Fact(rel, args)


@pytest.fixture(scope="module")
def mapping():
    return parse_mapping(
        """
        SOURCE R/2, S/2. TARGET P/2, Q/2.
        R(x, y) -> P(x, y).
        S(x, y) -> Q(x, y).
        P(x, y), P(x, z) -> y = z.
        """
    )


@pytest.fixture(scope="module")
def instance():
    # R(a, b) and R(a, c) violate the key on P; S(a, b) is safe.
    return Instance([f("R", "a", "b"), f("R", "a", "c"), f("S", "a", "b")])


def all_engines(mapping, instance):
    return [
        MonolithicEngine(mapping, instance),
        SegmentaryEngine(mapping, instance),
    ]


# (query text, certain answers, possible answers)
CASES = [
    # Some P-fact survives in every repair: certainly true.
    ("q() :- P(x, y).", {()}, {()}),
    # Only the repair keeping R(a, b) joins P with Q: possible, not certain.
    ("q() :- P(x, y), Q(x, y).", set(), {()}),
    # Needs the reversed pair Q(b, a), which never exists: false everywhere.
    ("q() :- Q(y, x), Q(x, y).", set(), set()),
    # The safe fact alone: certainly true, independent of the conflict.
    ("q() :- Q(x, y).", {()}, {()}),
]


class TestBooleanQueries:
    @pytest.mark.parametrize("text,certain,possible", CASES)
    def test_certain_all_engines(self, mapping, instance, text, certain, possible):
        query = parse_query(text)
        for engine in all_engines(mapping, instance):
            assert engine.answer(query) == certain, (text, type(engine))
            assert engine.possible_answers(query) == possible, (text, type(engine))
            if isinstance(engine, SegmentaryEngine):
                engine.close()

    @pytest.mark.parametrize("text,certain,_possible", CASES)
    def test_certain_matches_oracle(self, mapping, instance, text, certain, _possible):
        query = parse_query(text)
        assert xr_certain_oracle(query, instance, mapping) == certain, text

    def test_empty_and_nonempty_are_distinct(self, mapping, instance):
        """The footgun this file exists for: {()} and set() are both falsy
        in no sense — an engine that conflates them fails loudly here."""
        true_query = parse_query("q() :- P(x, y).")
        false_query = parse_query("q() :- Q(y, x), Q(x, y).")
        engine = SegmentaryEngine(mapping, instance)
        assert engine.answer(true_query) == {()}
        assert engine.answer(false_query) == set()
        assert engine.answer(true_query) != engine.answer(false_query)
