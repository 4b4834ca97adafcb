"""Regression: head-atom-restricted enumeration blocking.

The engine's :meth:`StableModelEngine._exclude` clause ranges over the head
atoms only — atoms never appearing in a rule head are forced false by the
generator, so every stable model agrees on them.  On the XR programs most
of the atom table is body-only "remains" copies of context facts, and the
old full-universe blocking clauses dominated solve time.  These tests pin
that the restriction changes nothing observable: enumeration on programs
with many body-only atoms is identical to brute force, terminates, and
never repeats a model.
"""

from hypothesis import given, settings, strategies as st

from repro.asp.stable import StableModelEngine
from repro.asp.syntax import GroundRule

from tests.test_asp.reference import brute_stable, program_over


def enumerate_all(program, limit=500):
    models = []
    engine = StableModelEngine(program)
    while True:
        model = engine.next_stable_model()
        if model is None:
            return models
        models.append(model)
        assert len(models) <= limit, "enumeration failed to terminate"


class TestBodyOnlyAtoms:
    def test_many_body_only_atoms_do_not_widen_enumeration(self):
        # Atoms 3..40 occur only in (positive or negative) bodies: they are
        # false in every stable model, and enumeration must still see both
        # answer sets of the even/odd guess on atoms 1-2 exactly once.
        body_only = list(range(3, 41))
        rules = [
            GroundRule((1,), (), (2,)),
            GroundRule((2,), (), (1,)),
        ]
        for atom in body_only:
            # constraint bodies referencing the headless atom
            rules.append(GroundRule((), (atom,), ()))
            rules.append(GroundRule((1,), (atom,), ()))
        program = program_over(40, rules)
        models = enumerate_all(program)
        assert sorted(models, key=sorted) == [frozenset({1}), frozenset({2})]

    def test_no_rules_yields_empty_model_once(self):
        program = program_over(5, [])
        assert enumerate_all(program) == [frozenset()]

    def test_only_headless_atoms(self):
        # Every atom is body-only.  A constraint whose body needs a (forced
        # false) headless atom is vacuously satisfied, so the empty model is
        # the unique stable model; a constraint on its *negation* is
        # violated by every model, leaving none.
        program = program_over(4, [GroundRule((), (1, 2), ())])
        assert enumerate_all(program) == [frozenset()]
        program = program_over(4, [GroundRule((), (), (4,))])
        assert enumerate_all(program) == []

    def test_models_not_repeated_with_disjunction(self):
        rules = [
            GroundRule((1, 2)),  # 1 ∨ 2
            GroundRule((), (3,), ()),  # 3 is body-only
        ]
        program = program_over(10, rules)
        models = enumerate_all(program)
        assert sorted(models, key=sorted) == [frozenset({1}), frozenset({2})]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_padded_random_programs_match_brute_force(data):
    """Random programs over atoms 1..n, with the atom table padded so the
    table is much wider than the head universe (the regression shape)."""
    num_atoms = data.draw(st.integers(1, 4))
    padding = data.draw(st.integers(5, 25))
    num_rules = data.draw(st.integers(0, 6))
    atoms = st.integers(1, num_atoms)
    rules = []
    for _ in range(num_rules):
        head = tuple(data.draw(st.lists(atoms, max_size=2, unique=True)))
        body_pos = tuple(data.draw(st.lists(atoms, max_size=2, unique=True)))
        body_neg = tuple(data.draw(st.lists(atoms, max_size=2, unique=True)))
        if set(head) & set(body_pos):
            continue
        rules.append(GroundRule(head, body_pos, body_neg))
    program = program_over(num_atoms + padding, rules)
    expected = brute_stable(num_atoms, rules)
    assert set(StableModelEngine(program).stable_models(limit=300)) == expected
