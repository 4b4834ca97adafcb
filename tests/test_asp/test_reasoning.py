"""Tests for cautious and brave reasoning (``decide_family``)."""

from repro.asp.reasoning import decide_family
from repro.asp.syntax import GroundRule
from tests.test_asp.reference import program_over


def cautious_consequences(program, atoms):
    """Accepted atoms under cautious reasoning; None without models."""
    verdicts = decide_family(program, atoms)
    return None if verdicts.no_model else verdicts.accepted


def brave_consequences(program, atoms):
    """Accepted atoms under brave reasoning; None without models."""
    verdicts = decide_family(program, atoms, mode="brave")
    return None if verdicts.no_model else verdicts.accepted


class TestCautious:
    def test_single_model(self):
        program = program_over(2, [GroundRule((1,)), GroundRule((2,), (1,))])
        assert cautious_consequences(program, [1, 2]) == frozenset({1, 2})

    def test_disjunction_nothing_cautious(self):
        program = program_over(2, [GroundRule((1, 2))])
        assert cautious_consequences(program, [1, 2]) == frozenset()

    def test_shared_atom_is_cautious(self):
        # a | b.  c :- a.  c :- b.  -> c in every stable model.
        rules = [
            GroundRule((1, 2)),
            GroundRule((3,), (1,)),
            GroundRule((3,), (2,)),
        ]
        program = program_over(3, rules)
        assert cautious_consequences(program, [1, 2, 3]) == frozenset({3})

    def test_no_stable_models_returns_none(self):
        program = program_over(1, [GroundRule((1,), (), (1,))])
        assert cautious_consequences(program, [1]) is None

    def test_query_atoms_scoped(self):
        program = program_over(3, [GroundRule((1,)), GroundRule((2,))])
        assert cautious_consequences(program, [2]) == frozenset({2})


class TestBrave:
    def test_disjunction_both_brave(self):
        program = program_over(2, [GroundRule((1, 2))])
        assert brave_consequences(program, [1, 2]) == frozenset({1, 2})

    def test_underivable_atom_not_brave(self):
        program = program_over(2, [GroundRule((1,))])
        assert brave_consequences(program, [1, 2]) == frozenset({1})

    def test_no_stable_models_returns_none(self):
        program = program_over(1, [GroundRule((1,), (), (1,))])
        assert brave_consequences(program, [1]) is None

    def test_brave_superset_of_cautious(self):
        rules = [
            GroundRule((1, 2)),
            GroundRule((3,), (1,)),
            GroundRule((3,), (2,)),
        ]
        program = program_over(3, rules)
        cautious = cautious_consequences(program, [1, 2, 3])
        brave = brave_consequences(program_over(3, rules), [1, 2, 3])
        assert cautious <= brave
