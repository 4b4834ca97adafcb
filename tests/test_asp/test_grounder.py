"""Tests for the relevance-driven grounder."""

from repro.asp.grounder import compute_possible_atoms, ground
from repro.asp.syntax import Comparison, GroundRule, Rule
from repro.relational.instance import Fact, Instance
from repro.relational.queries import Atom
from repro.relational.terms import Const, Variable

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def f(rel, *args):
    return Fact(rel, args)


class TestPossibleAtoms:
    def test_fixpoint(self):
        rules = [
            Rule([Atom("P", (X, Y))], body_pos=[Atom("E", (X, Y))]),
            Rule([Atom("P", (X, Z))], body_pos=[Atom("P", (X, Y)), Atom("P", (Y, Z))]),
        ]
        possible = compute_possible_atoms(rules, Instance([f("E", 1, 2), f("E", 2, 3)]))
        assert f("P", 1, 3) in possible

    def test_disjunctive_heads_all_possible(self):
        rules = [
            Rule([Atom("A", (X,)), Atom("B", (X,))], body_pos=[Atom("E", (X,))]),
        ]
        possible = compute_possible_atoms(rules, Instance([f("E", 1)]))
        assert f("A", 1) in possible and f("B", 1) in possible


class TestGround:
    def test_facts_become_units(self):
        program = ground([], [f("E", 1)])
        assert any(r.is_fact() for r in program.rules)

    def test_rule_instantiation(self):
        rules = [Rule([Atom("P", (X,))], body_pos=[Atom("E", (X,))])]
        program = ground(rules, [f("E", 1), f("E", 2)])
        non_facts = [r for r in program.rules if not r.is_fact()]
        assert len(non_facts) == 2

    def test_comparison_filters_groundings(self):
        rules = [
            Rule(
                [Atom("P", (X, Y))],
                body_pos=[Atom("E", (X,)), Atom("E", (Y,))],
                comparisons=[Comparison("neq", X, Y)],
            )
        ]
        program = ground(rules, [f("E", 1), f("E", 2)])
        heads = {
            program.atoms.fact_of(r.head[0])
            for r in program.rules
            if not r.is_fact() and r.head
        }
        assert heads == {f("P", 1, 2), f("P", 2, 1)}

    def test_impossible_negative_literal_dropped(self):
        rules = [
            Rule(
                [Atom("P", (X,))],
                body_pos=[Atom("E", (X,))],
                body_neg=[Atom("NeverDerived", (X,))],
            )
        ]
        program = ground(rules, [f("E", 1)])
        rule = next(r for r in program.rules if not r.is_fact())
        assert rule.body_neg == ()

    def test_possible_negative_literal_kept(self):
        rules = [
            Rule([Atom("Q", (X,))], body_pos=[Atom("E", (X,))]),
            Rule(
                [Atom("P", (X,))],
                body_pos=[Atom("E", (X,))],
                body_neg=[Atom("Q", (X,))],
            ),
        ]
        program = ground(rules, [f("E", 1)])
        rule = next(
            r
            for r in program.rules
            if r.head and program.atoms.fact_of(r.head[0]).relation == "P"
        )
        assert len(rule.body_neg) == 1

    def test_tautologies_dropped(self):
        rules = [Rule([Atom("P", (X, X))], body_pos=[Atom("P", (X, X))])]
        program = ground(rules, [f("P", 1, 1)])
        assert all(r.is_fact() for r in program.rules)

    def test_constraint_grounding(self):
        rules = [Rule([], body_pos=[Atom("E", (X, X))])]
        program = ground(rules, [f("E", 1, 1), f("E", 1, 2)])
        constraints = [r for r in program.rules if r.is_constraint()]
        assert len(constraints) == 1

    def test_constant_in_rule(self):
        rules = [
            Rule([Atom("P", (X,))], body_pos=[Atom("E", (Const(1), X))]),
        ]
        program = ground(rules, [f("E", 1, "a"), f("E", 2, "b")])
        heads = {
            program.atoms.fact_of(r.head[0])
            for r in program.rules
            if not r.is_fact() and r.head
        }
        assert heads == {f("P", "a")}


class TestGroundWithStableModels:
    def test_three_coloring(self):
        """Ground + solve a classic guess-and-check program."""
        from repro.asp.reasoning import decide_family
        from repro.asp.stable import StableModelEngine

        X1, Y1 = Variable("u"), Variable("v")
        color_rules = [
            Rule(
                [Atom("col", (X1, Const(c)))],
                body_pos=[Atom("node", (X1,))],
                body_neg=[
                    Atom("col", (X1, Const(other)))
                    for other in ("r", "g", "b")
                    if other != c
                ],
            )
            for c in ("r", "g", "b")
        ]
        conflict = Rule(
            [],
            body_pos=[
                Atom("edge", (X1, Y1)),
                Atom("col", (X1, Z)),
                Atom("col", (Y1, Z)),
            ],
        )
        facts = [f("node", n) for n in "abc"] + [
            f("edge", "a", "b"),
            f("edge", "b", "c"),
            f("edge", "a", "c"),
        ]
        program = ground(color_rules + [conflict], facts)
        engine = StableModelEngine(program)
        models = list(engine.stable_models())
        assert len(models) == 6  # 3! proper colorings of a triangle
        # Every node takes every color in some coloring, none in all.
        colors = [
            program.atoms.id_of(f("col", n, c)) for n in "abc" for c in "rgb"
        ]
        brave = decide_family(program, colors, mode="brave")
        cautious = decide_family(program, colors)
        assert brave.accepted == frozenset(colors)
        assert cautious.accepted == frozenset()

    def test_unsatisfiable_coloring(self):
        """K4 is not 2-colorable."""
        from repro.asp.stable import StableModelEngine

        U, V, C = Variable("u"), Variable("v"), Variable("c")
        rules = [
            Rule(
                [Atom("col", (U, Const("r"))), Atom("col", (U, Const("g")))],
                body_pos=[Atom("node", (U,))],
            ),
            Rule(
                [],
                body_pos=[Atom("edge", (U, V)), Atom("col", (U, C)), Atom("col", (V, C))],
            ),
        ]
        nodes = "abcd"
        facts = [f("node", n) for n in nodes] + [
            f("edge", a, b) for a in nodes for b in nodes if a < b
        ]
        program = ground(rules, facts)
        assert list(StableModelEngine(program).stable_models()) == []
