"""Tests for stable model computation (normal, disjunctive, HCF shifting)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asp.stable import (
    StableModelEngine,
    is_head_cycle_free,
    shift_disjunctions,
)
from repro.asp.syntax import GroundRule
from tests.test_asp.reference import brute_stable, program_over


class TestNormalPrograms:
    def test_facts_only(self):
        program = program_over(2, [GroundRule((1,)), GroundRule((2,))])
        assert set(StableModelEngine(program).stable_models()) == {
            frozenset({1, 2})
        }

    def test_definite_rules_have_least_model(self):
        rules = [GroundRule((1,)), GroundRule((2,), (1,)), GroundRule((3,), (2,))]
        program = program_over(3, rules)
        assert set(StableModelEngine(program).stable_models()) == {
            frozenset({1, 2, 3})
        }

    def test_positive_cycle_is_unfounded(self):
        rules = [GroundRule((1,), (2,)), GroundRule((2,), (1,))]
        program = program_over(2, rules)
        assert set(StableModelEngine(program).stable_models()) == {frozenset()}

    def test_even_loop_two_models(self):
        # a :- not b.  b :- not a.
        rules = [
            GroundRule((1,), (), (2,)),
            GroundRule((2,), (), (1,)),
        ]
        program = program_over(2, rules)
        assert set(StableModelEngine(program).stable_models()) == {
            frozenset({1}),
            frozenset({2}),
        }

    def test_odd_loop_no_model(self):
        # a :- not a.
        program = program_over(1, [GroundRule((1,), (), (1,))])
        assert list(StableModelEngine(program).stable_models()) == []

    def test_constraint_filters_models(self):
        rules = [
            GroundRule((1,), (), (2,)),
            GroundRule((2,), (), (1,)),
            GroundRule((), (1,)),  # forbid a
        ]
        program = program_over(2, rules)
        assert set(StableModelEngine(program).stable_models()) == {frozenset({2})}


class TestDisjunctivePrograms:
    def test_disjunctive_fact(self):
        program = program_over(2, [GroundRule((1, 2))])
        assert set(StableModelEngine(program).stable_models()) == {
            frozenset({1}),
            frozenset({2}),
        }

    def test_disjunction_with_absorption(self):
        # a | b.  a :- b.  Minimality leaves only {a}.
        rules = [GroundRule((1, 2)), GroundRule((1,), (2,))]
        program = program_over(2, rules)
        assert set(StableModelEngine(program).stable_models()) == {frozenset({1})}

    def test_non_hcf_program(self):
        # a | b.  a :- b.  b :- a.  -> {a, b} is the only stable model.
        rules = [
            GroundRule((1, 2)),
            GroundRule((1,), (2,)),
            GroundRule((2,), (1,)),
        ]
        program = program_over(2, rules)
        assert not is_head_cycle_free(rules)
        assert set(StableModelEngine(program).stable_models()) == {
            frozenset({1, 2})
        }

    def test_limit(self):
        program = program_over(2, [GroundRule((1, 2))])
        assert len(list(StableModelEngine(program).stable_models(limit=1))) == 1


class TestShifting:
    def test_hcf_detection(self):
        disjunctive = [GroundRule((1, 2))]
        assert is_head_cycle_free(disjunctive)
        cyclic = [
            GroundRule((1, 2)),
            GroundRule((1,), (2,)),
            GroundRule((2,), (1,)),
        ]
        assert not is_head_cycle_free(cyclic)

    def test_shift_structure(self):
        shifted = shift_disjunctions([GroundRule((1, 2), (3,))])
        assert GroundRule((1,), (3,), (2,)) in shifted
        assert GroundRule((2,), (3,), (1,)) in shifted

    def test_shift_preserves_models_when_hcf(self):
        rules = [GroundRule((1, 2)), GroundRule((), (1, 2))]
        program = program_over(2, rules)
        shifted_engine = StableModelEngine(program, auto_shift=True)
        direct_engine = StableModelEngine(program, auto_shift=False)
        assert set(shifted_engine.stable_models()) == set(
            direct_engine.stable_models()
        )


class TestIncremental:
    def test_guarded_clause_steers_the_search(self):
        program = program_over(2, [GroundRule((1, 2))])
        engine = StableModelEngine(program)
        selector = engine.new_selector()
        engine.add_guarded_clause(selector, [-1])  # forbid atom 1
        assert engine.solve_under([selector]) == frozenset({2})
        engine.retire_selector(selector)
        assert set(engine.stable_models()) == {frozenset({1}), frozenset({2})}

    def test_guarded_clause_bounds_checked(self):
        program = program_over(1, [GroundRule((1,))])
        engine = StableModelEngine(program)
        with pytest.raises(ValueError):
            engine.add_guarded_clause(engine.new_selector(), [99])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_programs_match_brute_force(data):
    num_atoms = data.draw(st.integers(1, 5))
    num_rules = data.draw(st.integers(0, 8))
    rules = []
    atoms = st.integers(1, num_atoms)
    for _ in range(num_rules):
        head = tuple(
            data.draw(st.lists(atoms, max_size=2, unique=True))
        )
        body_pos = tuple(
            data.draw(st.lists(atoms, max_size=2, unique=True))
        )
        body_neg = tuple(
            data.draw(st.lists(atoms, max_size=2, unique=True))
        )
        if set(head) & set(body_pos):
            continue
        rules.append(GroundRule(head, body_pos, body_neg))
    program = program_over(num_atoms, rules)
    expected = brute_stable(num_atoms, rules)
    assert set(StableModelEngine(program).stable_models(limit=200)) == expected
    assert (
        set(StableModelEngine(program, auto_shift=False).stable_models(limit=200))
        == expected
    )
