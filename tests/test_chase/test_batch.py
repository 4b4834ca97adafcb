"""Tests for the set-at-a-time batch operators.

Every batch operator is checked against its nested-loop reference
(:mod:`repro.chase.gav`):
``batch_chase`` vs ``gav_chase`` (same fixpoint *and* same round/derived
counters), ``enumerate_groundings_batch`` vs ``enumerate_groundings``
(same grounding set), ``find_violations_batch`` vs ``find_violations``
(same canonical violation list).  The reference cases cover the inputs
that are easy to get wrong in a hash join: bodies of a handful of facts,
boolean and skolem values, constants and repeated variables inside body
atoms, and reduced GLAV mappings whose constants-only egds compare
skolem values.  Index sharing and incremental index maintenance get
direct tests too.
"""

import pytest

from repro.chase.batch import (
    _AtomStep,
    _IndexCache,
    batch_chase,
    enumerate_groundings_batch,
    find_violations_batch,
)
from repro.chase.gav import enumerate_groundings, find_violations, gav_chase
from repro.parser import parse_dependency, parse_mapping
from repro.reduction.reduce import reduce_mapping
from repro.relational import Fact, Instance
from repro.relational.queries import Atom
from repro.relational.terms import SkolemValue, Variable
from repro.scenarios.tpch import tpch_scenario
from repro.xr.exchange import canonicalize_violations

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def f(rel, *args):
    return Fact(rel, args)


def rule(text):
    return parse_dependency(text)


def chain(n=8):
    return Instance([f("E", i, i + 1) for i in range(n)])


TC_RULES = [rule("E(x,y) -> P(x,y)."), rule("P(x,y), P(y,z) -> P(x,z).")]

#: Body atoms with constants and repeated variables, within and across atoms.
SHAPE_RULES = TC_RULES + [
    rule("E(x,x) -> L(x)."),
    rule("E(x,'b') -> B(x)."),
    rule("P(x,y), P(y,x) -> S(x,y)."),
    rule("P(x,'b'), E(x,x), P(x,y) -> T(x,y)."),
]

SKOLEM_SOURCE = Instance(
    [
        f("E", SkolemValue("f", ("a",)), "b"),
        f("E", "b", SkolemValue("g", (SkolemValue("f", ("a",)), 1))),
        f("E", SkolemValue("g", (SkolemValue("f", ("a",)), 1)), "c"),
    ]
)

#: A GLAV mapping: its reduction carries skolem values into body facts and
#: a constants-only egd over them.
GLAV_KEYS = """
SOURCE R/2. TARGET T/2, U/2.
R(x, y) -> T(x, z), U(z, y).
T(x, z), T(x, w) -> z = w.
U(z, y), U(z, w) -> y = w.
"""
GLAV_SOURCE = Instance(
    [f("R", "a", "b"), f("R", "a", "c"), f("R", "d", "e"), f("R", "g", "e")]
)

#: name -> (rules, instance they are evaluated over, after the chase).
GROUNDING_CASES = {
    # 16 facts or fewer over every body: the smallest joins.
    "tiny-body": (TC_RULES, chain(2)),
    "booleans": (
        TC_RULES,
        Instance([f("E", True, False), f("E", False, True)]),
    ),
    "constants-and-repeats": (
        SHAPE_RULES,
        Instance(
            [
                f("E", "a", "a"),
                f("E", "a", "b"),
                f("E", "b", "a"),
                f("E", "c", "b"),
                f("E", 1, 1),
            ]
        ),
    ),
    "skolem-values": (TC_RULES, SKOLEM_SOURCE),
    "reduced-glav": (
        list(reduce_mapping(parse_mapping(GLAV_KEYS)).gav.all_tgds()),
        GLAV_SOURCE,
    ),
}

KEY_MAPPING = """
SOURCE E/2. TARGET P/2, Q/2.
E(x, y) -> P(x, y).
P(x, y), P(x, z) -> y = z.
P(x, x), Q(x, y) -> y = 'b'.
Q(x, 'b'), P(x, y) -> x = y.
"""

#: name -> (mapping text, source instance).
VIOLATION_CASES = {
    "tiny-body": (
        KEY_MAPPING,
        Instance([f("E", "a", "b"), f("E", "a", "c")]),
    ),
    "booleans": (
        KEY_MAPPING,
        Instance([f("E", True, False), f("E", True, True)]),
    ),
    "constants-and-repeats": (
        KEY_MAPPING
        + """
        E(x, y) -> Q(x, y).
        """,
        Instance(
            [
                f("E", "a", "a"),
                f("E", "a", "b"),
                f("E", "c", "c"),
                f("E", "c", "d"),
                f("E", "e", "f"),
            ]
        ),
    ),
    "skolem-values": (GLAV_KEYS, GLAV_SOURCE),
}


class TestBatchChase:
    def test_matches_gav_chase_facts_and_stats(self):
        batch_stats: dict[str, int] = {}
        tuple_stats: dict[str, int] = {}
        batch = batch_chase(chain(), TC_RULES, stats=batch_stats)
        reference = gav_chase(chain(), TC_RULES, stats=tuple_stats)
        assert set(batch) == set(reference)
        assert batch_stats == tuple_stats

    def test_matches_on_tpch_cell(self):
        scenario = tpch_scenario(0.005, 0.4, 3)
        tgds = reduce_mapping(scenario.mapping).gav.st_tgds
        batch_stats: dict[str, int] = {}
        tuple_stats: dict[str, int] = {}
        batch = batch_chase(scenario.instance, tgds, stats=batch_stats)
        reference = gav_chase(scenario.instance, tgds, stats=tuple_stats)
        assert set(batch) == set(reference)
        assert batch_stats == tuple_stats
        assert batch_stats["rounds"] >= 2  # the target-side join tgd fires

    def test_skolem_heads(self):
        from repro.dependencies.tgds import TGD, SkolemTerm

        skolem_rule = TGD([Atom("R", (X, Y))], [Atom("T", (X, SkolemTerm("f", [X])))])
        source = Instance([f("R", "a", "b"), f("R", "a", "c")])
        assert set(batch_chase(source, [skolem_rule])) == set(
            gav_chase(source, [skolem_rule])
        )

    def test_non_gav_rule_rejected(self):
        with pytest.raises(ValueError, match="GAV"):
            batch_chase(Instance(), [rule("R(x) -> T(x, z).")])

    def test_round_limit(self):
        with pytest.raises(RuntimeError, match="rounds"):
            batch_chase(chain(16), TC_RULES, max_rounds=2)


class TestGroundings:
    def groundings_of(self, rules, instance):
        return {
            (rule.label, body, head)
            for rule, body, head in enumerate_groundings_batch(rules, instance)
        }

    def reference_of(self, rules, instance):
        return {
            (rule.label, body, head)
            for rule, body, head in enumerate_groundings(rules, instance)
        }

    def test_hash_mode_matches_reference(self):
        chased = gav_chase(chain(), TC_RULES)
        got = self.groundings_of(TC_RULES, chased)
        assert got == self.reference_of(TC_RULES, chased)

    @pytest.mark.parametrize("case", sorted(GROUNDING_CASES))
    def test_matches_reference(self, case):
        rules, source = GROUNDING_CASES[case]
        chased = gav_chase(source, rules)
        reference = self.reference_of(rules, chased)
        assert self.groundings_of(rules, chased) == reference
        assert reference  # every case must exercise some join

    def test_tautological_groundings_dropped(self):
        loop = Instance([f("P", 1, 1)])
        assert self.groundings_of(TC_RULES[1:], loop) == set()


class TestViolations:
    def test_matches_reference_on_tpch(self):
        scenario = tpch_scenario(0.005, 0.5, 1)
        gav = reduce_mapping(scenario.mapping).gav
        chased = gav_chase(scenario.instance, gav.st_tgds)
        batch = canonicalize_violations(
            find_violations_batch(gav.target_egds, chased)
        )
        assert batch == find_violations(gav, chased)
        assert batch  # injection at 50 % must produce violations

    @pytest.mark.parametrize("case", sorted(VIOLATION_CASES))
    def test_matches_reference(self, case):
        text, source = VIOLATION_CASES[case]
        gav = reduce_mapping(parse_mapping(text)).gav
        chased = gav_chase(source, list(gav.all_tgds()))
        batch = canonicalize_violations(
            find_violations_batch(gav.target_egds, chased)
        )
        reference = find_violations(gav, chased)
        assert batch == reference
        assert reference  # every case must contain a violation


class TestIndexSharing:
    def test_same_signature_shares_one_index(self):
        # An egd self-join compiles its two atoms to the same signature
        # (same relation, same key/const/same-var shape), so the cache
        # must hand back the identical index object.
        instance = Instance([f("T", i, i % 3) for i in range(20)])
        layout_a: dict[Variable, int] = {}
        step_a = _AtomStep(Atom("T", (X, Y)), layout_a)
        layout_b: dict[Variable, int] = {}
        step_b = _AtomStep(Atom("T", (X, Z)), layout_b)
        assert step_a.signature == step_b.signature
        cache = _IndexCache(instance)
        assert cache.index_for(step_a) is cache.index_for(step_b)

    def test_incremental_maintenance(self):
        instance = Instance([f("T", 1, 2)])
        layout: dict[Variable, int] = {}
        step = _AtomStep(Atom("T", (X, Y)), layout)
        cache = _IndexCache(instance)
        before = sum(len(bucket) for bucket in cache.index_for(step).values())
        cache.add_fact(f("T", 3, 4))
        after = sum(len(bucket) for bucket in cache.index_for(step).values())
        assert after == before + 1
