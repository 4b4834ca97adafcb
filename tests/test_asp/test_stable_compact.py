"""The generator's special cases, checked model for model.

The stable-model engine's encoding drops duplicate rules, reuses the
literal of a single-literal body as the body variable, hash-conses shared
bodies, loads clauses in bulk and checks normal candidates against a
scaffolded reduct.  None of that may change the stable models — these
tests check the engine against brute-force enumeration on the edge cases
the generator special-cases, then sweep random programs.
"""

from hypothesis import given, settings, strategies as st

from repro.asp.stable import StableModelEngine
from repro.asp.syntax import GroundRule
from tests.test_asp.reference import brute_stable, program_over


def models_both_ways(num_atoms, rules):
    """The engine's stable models, asserted equal to the brute-force set."""
    models = set(
        StableModelEngine(program_over(num_atoms, rules)).stable_models()
    )
    assert models == brute_stable(num_atoms, rules)
    return models


class TestCompactSpecialCases:
    def test_duplicate_rules_collapse(self):
        rules = [
            GroundRule((1,), (), (2,)),
            GroundRule((1,), (), (2,)),
            GroundRule((2,), (), (1,)),
        ]
        assert models_both_ways(2, rules) == {
            frozenset({1}),
            frozenset({2}),
        }

    def test_shared_bodies_hash_cons(self):
        # Three rules with the identical two-literal body: one beta.
        rules = [
            GroundRule((1,)),
            GroundRule((2,)),
            GroundRule((3,), (1, 2)),
            GroundRule((4,), (1, 2)),
            GroundRule((5,), (1, 2)),
        ]
        assert models_both_ways(5, rules) == {frozenset({1, 2, 3, 4, 5})}

    def test_single_literal_positive_body_is_inlined(self):
        rules = [GroundRule((1,)), GroundRule((2,), (1,)), GroundRule((3,), (2,))]
        assert models_both_ways(3, rules) == {frozenset({1, 2, 3})}

    def test_single_literal_negative_body_is_inlined(self):
        # a :- not b.  b :- not a.  (each body is the single literal ¬x)
        rules = [GroundRule((1,), (), (2,)), GroundRule((2,), (), (1,))]
        assert models_both_ways(2, rules) == {frozenset({1}), frozenset({2})}

    def test_self_supporting_rule_is_tautological(self):
        # a :- a alone cannot found a.
        rules = [GroundRule((1,), (1,))]
        assert models_both_ways(1, rules) == {frozenset()}

    def test_negative_self_dependency_forces_atom(self):
        # a :- not a has no stable model alone...
        assert models_both_ways(1, [GroundRule((1,), (), (1,))]) == set()
        # ...but a :- not a with b :- a, a :- b still has none (a would
        # need itself false), exercising the unit-clause branch.
        rules = [
            GroundRule((1,), (), (1,)),
            GroundRule((2,), (1,)),
        ]
        assert models_both_ways(2, rules) == set()

    def test_contradictory_body_never_fires(self):
        # c :- a, not a is inert; a :- not b picks a.
        rules = [
            GroundRule((3,), (1,), (1,)),
            GroundRule((1,), (), (2,)),
        ]
        assert models_both_ways(3, rules) == {frozenset({1})}

    def test_disjunctive_empty_body(self):
        # a | b. with minimality: two models.  The empty body maps to the
        # permanently-true variable; exclusive-support sigmas guard it.
        rules = [GroundRule((1, 2))]
        assert models_both_ways(2, rules) == {frozenset({1}), frozenset({2})}

    def test_disjunctive_duplicate_head_atoms(self):
        rules = [GroundRule((1, 1, 2))]
        assert models_both_ways(2, rules) == {frozenset({1}), frozenset({2})}

    def test_head_containing_body_literal(self):
        # a | b :- a is tautological under the single-literal body inline.
        rules = [GroundRule((1, 2), (1,)), GroundRule((1,), (), (2,))]
        assert models_both_ways(2, rules) == {frozenset({1})}

    def test_positive_loop_needs_loop_formula(self):
        # a :- b. b :- a. a :- not c. c :- not a.  The {a, b} loop must
        # not self-support even with single-literal bodies inlined.
        rules = [
            GroundRule((1,), (2,)),
            GroundRule((2,), (1,)),
            GroundRule((1,), (), (3,)),
            GroundRule((3,), (), (1,)),
        ]
        assert models_both_ways(3, rules) == {
            frozenset({1, 2}),
            frozenset({3}),
        }

    def test_constraints_prune_models(self):
        # Even loop plus a constraint killing one branch.
        rules = [
            GroundRule((1,), (), (2,)),
            GroundRule((2,), (), (1,)),
            GroundRule((), (1,)),
        ]
        assert models_both_ways(2, rules) == {frozenset({2})}


@st.composite
def small_programs(draw):
    num_atoms = draw(st.integers(min_value=1, max_value=4))
    atoms = st.integers(min_value=1, max_value=num_atoms)
    rules = draw(
        st.lists(
            st.builds(
                GroundRule,
                st.lists(atoms, max_size=2).map(tuple),
                st.lists(atoms, max_size=2).map(tuple),
                st.lists(atoms, max_size=2).map(tuple),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return num_atoms, rules


class TestCompactEquivalenceSweep:
    @settings(max_examples=150, deadline=None)
    @given(small_programs())
    def test_random_programs_agree(self, case):
        num_atoms, rules = case
        models_both_ways(num_atoms, rules)

    def test_exhaustive_two_atom_normal_programs(self):
        # Every subset of the 9 single-head rules over {a, b} with at
        # most one body literal: exact sweep of the inlining paths.
        pool = [
            GroundRule((h,), pos, neg)
            for h in (1, 2)
            for pos, neg in [((), ()), ((1,), ()), ((2,), ()),
                             ((), (1,)), ((), (2,))]
        ]
        for mask in range(1, 2 ** len(pool), 7):  # stride keeps it fast
            rules = [r for i, r in enumerate(pool) if mask >> i & 1]
            models_both_ways(2, rules)
