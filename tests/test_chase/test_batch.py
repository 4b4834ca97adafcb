"""Tests for the set-at-a-time batch operators.

Every batch operator is checked against its nested-loop reference
(:mod:`repro.chase.gav`): the one semi-naive chase ``chase_insert`` vs
``gav_chase`` (same fixpoint *and* same round/derived counters), the
chase's own groundings from the *source* vs ``enumerate_groundings``
over the reference fixpoint (same grounding list, duplicates counted),
``find_violations_batch`` vs ``find_violations`` (same canonical
violation list).  The reference cases cover the inputs
that are easy to get wrong in a hash join: bodies of a handful of facts,
boolean and skolem values, constants and repeated variables inside body
atoms, and reduced GLAV mappings whose constants-only egds compare
skolem values.  Index sharing and incremental index maintenance get
direct tests too.
"""

import pytest

from repro.chase.batch import (
    ChasePlans,
    _AtomStep,
    _PivotPlan,
    _IndexCache,
    chase_insert,
    find_violations_batch,
)
from repro.chase.gav import enumerate_groundings, find_violations, gav_chase
from repro.parser import parse_dependency, parse_mapping
from repro.reduction.reduce import reduce_mapping
from repro.relational import Fact, Instance
from repro.relational.instance import fact_order
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


def chase_source(source, rules, **kwargs):
    """The fixpoint of ``rules`` over ``source`` by :func:`chase_insert`
    into an empty instance (as the exchange build runs it)."""
    return chase_with_groundings(source, rules, **kwargs)[0]


def chase_with_groundings(source, rules, **kwargs):
    cache = _IndexCache(Instance())
    plans = ChasePlans(source, rules)
    _added, groundings = chase_insert(plans, cache, source, **kwargs)
    return cache.instance, groundings


def grounding_list(groundings):
    """Groundings as a sorted list of ``(label, body, head)``: a repeated
    grounding shows up twice."""
    return sorted(
        ((rule.label, body, head) for rule, body, head in groundings),
        key=lambda g: (g[0], [fact_order(x) for x in g[1]], fact_order(g[2])),
    )


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
        batch = chase_source(chain(), TC_RULES, stats=batch_stats)
        reference = gav_chase(chain(), TC_RULES, stats=tuple_stats)
        assert set(batch) == set(reference)
        assert batch_stats == tuple_stats

    def test_matches_on_tpch_cell(self):
        scenario = tpch_scenario(0.005, 0.4, 3)
        tgds = reduce_mapping(scenario.mapping).gav.st_tgds
        batch_stats: dict[str, int] = {}
        tuple_stats: dict[str, int] = {}
        batch = chase_source(scenario.instance, tgds, stats=batch_stats)
        reference = gav_chase(scenario.instance, tgds, stats=tuple_stats)
        assert set(batch) == set(reference)
        assert batch_stats == tuple_stats
        assert batch_stats["rounds"] >= 2  # the target-side join tgd fires

    def test_skolem_heads(self):
        from repro.dependencies.tgds import TGD, SkolemTerm

        skolem_rule = TGD([Atom("R", (X, Y))], [Atom("T", (X, SkolemTerm("f", [X])))])
        source = Instance([f("R", "a", "b"), f("R", "a", "c")])
        assert set(chase_source(source, [skolem_rule])) == set(
            gav_chase(source, [skolem_rule])
        )

    def test_non_gav_rule_rejected(self):
        with pytest.raises(ValueError, match="GAV"):
            chase_source(Instance(), [rule("R(x) -> T(x, z).")])

    def test_round_limit(self):
        with pytest.raises(RuntimeError, match="rounds"):
            chase_source(chain(16), TC_RULES, max_rounds=2)


class TestGroundings:
    """The chase's rows are the groundings of the fixpoint, each once."""

    def groundings_of(self, rules, source):
        return grounding_list(chase_with_groundings(source, rules)[1])

    def reference_of(self, rules, source):
        return grounding_list(enumerate_groundings(rules, gav_chase(source, rules)))

    def test_hash_mode_matches_reference(self):
        got = self.groundings_of(TC_RULES, chain())
        assert got == self.reference_of(TC_RULES, chain())

    @pytest.mark.parametrize("split", [1, 4, 7])
    def test_second_insert_finds_exactly_the_new_groundings(self, split):
        """Inserting into a chased instance (an update) adds exactly the
        groundings with a new body fact: together with the first insert's,
        every grounding of the whole fixpoint, none twice."""
        facts = sorted(chain(), key=fact_order)
        plans = ChasePlans(chain(), TC_RULES)
        cache = _IndexCache(Instance())
        _added, first = chase_insert(plans, cache, facts[:split])
        _added, second = chase_insert(plans, cache, facts[split:])
        assert grounding_list(first + second) == self.reference_of(
            TC_RULES, chain()
        )
        assert set(cache.instance) == set(gav_chase(chain(), TC_RULES))

    @pytest.mark.parametrize("case", sorted(GROUNDING_CASES))
    def test_matches_reference(self, case):
        rules, source = GROUNDING_CASES[case]
        reference = self.reference_of(rules, source)
        assert self.groundings_of(rules, source) == reference
        assert reference  # every case must exercise some join

    @pytest.mark.parametrize("case", sorted(GROUNDING_CASES))
    def test_every_row_built_is_emitted(self, case, monkeypatch):
        """No join row is built to be thrown away: the atoms before the
        pivot skip the round's facts at the probe, so the chase emits
        every row it builds, tautologies (head in body) aside."""
        rules, source = GROUNDING_CASES[case]
        plans = ChasePlans(source, rules)
        compiled = {
            id(plan): (rule, ground, body_of)
            for entries in plans.tgds.values()
            for rule, plan, ground, body_of in entries
        }
        built = []
        real_rows = _PivotPlan.rows

        def recording(plan, *args, **kwargs):
            rows = real_rows(plan, *args, **kwargs)
            rule, ground, body_of = compiled[id(plan)]
            built.extend(
                (rule, body_of(provenance), ground(values))
                for values, provenance in rows
            )
            return rows

        monkeypatch.setattr(_PivotPlan, "rows", recording)
        _added, groundings = chase_insert(
            plans, _IndexCache(Instance()), sorted(source, key=fact_order)
        )
        emitted = [row for row in built if row[2] not in row[1]]
        assert grounding_list(emitted) == grounding_list(groundings)

    def test_tautological_groundings_dropped(self):
        loop = Instance([f("P", 1, 1)])
        assert chase_with_groundings(loop, TC_RULES[1:])[1] == []


class TestViolations:
    def test_matches_reference_on_tpch(self):
        scenario = tpch_scenario(0.005, 0.5, 1)
        gav = reduce_mapping(scenario.mapping).gav
        chased = gav_chase(scenario.instance, gav.st_tgds)
        batch = canonicalize_violations(
            find_violations_batch(gav.target_egds, _IndexCache(chased))
        )
        assert batch == find_violations(gav, chased)
        assert batch  # injection at 50 % must produce violations

    @pytest.mark.parametrize("case", sorted(VIOLATION_CASES))
    def test_matches_reference(self, case):
        text, source = VIOLATION_CASES[case]
        gav = reduce_mapping(parse_mapping(text)).gav
        chased = gav_chase(source, list(gav.all_tgds()))
        batch = canonicalize_violations(
            find_violations_batch(gav.target_egds, _IndexCache(chased))
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
