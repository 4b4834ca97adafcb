"""Incremental (family) API of the stable-model engine.

``solve_under`` searches for stable models under assumptions without
excluding what it finds; selector literals guard per-candidate steering
clauses so many candidate questions share one solver and its learned
clauses.  These are the primitives behind
:func:`repro.asp.reasoning.decide_family`.
"""

import itertools

import pytest

from repro.asp.stable import StableModelEngine
from repro.asp.syntax import AtomTable, GroundProgram, GroundRule
from repro.relational.instance import Fact


def program_over(num_atoms, rules):
    program = GroundProgram(AtomTable())
    for index in range(num_atoms):
        program.atoms.intern(Fact("A", (index + 1,)))
    program.rules = list(rules)
    return program


def choice_program():
    """Two independent binary choices: {1,3} x {2,4} -> 4 stable models."""
    return program_over(
        4,
        [
            GroundRule((1,), body_neg=(3,)),
            GroundRule((3,), body_neg=(1,)),
            GroundRule((2,), body_neg=(4,)),
            GroundRule((4,), body_neg=(2,)),
        ],
    )


class TestSolveUnder:
    def test_finds_model_without_excluding_it(self):
        engine = StableModelEngine(choice_program())
        first = engine.solve_under()
        second = engine.solve_under()
        assert first is not None and second is not None
        # Nothing was excluded: the same question may return the same
        # model again (phase saving makes this the expected outcome).
        assert first == second
        assert engine.failed_assumptions is None

    def test_assumptions_steer_the_model(self):
        engine = StableModelEngine(choice_program())
        model = engine.solve_under([3, 4])
        assert model == frozenset({3, 4})
        model = engine.solve_under([1, 2])
        assert model == frozenset({1, 2})

    def test_unsat_under_assumptions_keeps_engine_usable(self):
        engine = StableModelEngine(choice_program())
        assert engine.solve_under([1, 3]) is None  # mutually exclusive
        assert engine.failed_assumptions  # non-empty core
        assert set(engine.failed_assumptions) <= {1, 3}
        # The engine is not exhausted: unrelated questions still work.
        assert engine.solve_under([1]) is not None

    def test_no_stable_models_yields_empty_core(self):
        # p :- not p has no stable model.
        engine = StableModelEngine(
            program_over(1, [GroundRule((1,), body_neg=(1,))])
        )
        assert engine.solve_under([1]) is None
        assert engine.failed_assumptions == []

    def test_unstable_candidates_rejected_under_assumptions(self):
        # Symmetric positive loop {1, 2} with no external support: the
        # generator admits {1,2} but minimality rejects it, with or
        # without assumptions.
        engine = StableModelEngine(
            program_over(
                2, [GroundRule((1,), body_pos=(2,)), GroundRule((2,), body_pos=(1,))]
            )
        )
        assert engine.solve_under([1]) is None
        assert engine.solve_under() == frozenset()

    def test_model_reports_only_the_goals_asked_about(self):
        engine = StableModelEngine(choice_program())
        first = engine.define_goal([[1]])
        second = engine.define_goal([[1, 2], [3]])
        model = engine.solve_under([1, 2])
        assert model == frozenset({1, 2})
        model = engine.solve_under([1, 2], goals=[first])
        assert model == frozenset({1, 2, first})
        model = engine.solve_under([1, 2], goals=[first, second])
        assert model == frozenset({1, 2, first, second})
        model = engine.solve_under([3, 4], goals=[first, second])
        assert model == frozenset({3, 4, second})

    def test_statistics_track_carried_clauses(self):
        engine = StableModelEngine(choice_program())
        assert engine.statistics["carried_clauses"] == 0
        engine.solve_under([3, 4])
        engine.solve_under([1, 3])  # conflict: learns at least one clause
        assert engine.statistics["carried_clauses"] >= 0  # never negative


class TestSelectors:
    def test_selector_guards_steering_clause(self):
        engine = StableModelEngine(choice_program())
        selector = engine.new_selector()
        engine.add_guarded_clause(selector, [3])  # "require atom 3"
        with_guard = engine.solve_under([selector])
        assert with_guard is not None and 3 in with_guard
        # Without assuming the selector the constraint is inert.
        free = engine.solve_under([1])
        assert free is not None and 1 in free

    def test_selector_ids_outside_atom_universe(self):
        engine = StableModelEngine(choice_program())
        selector = engine.new_selector()
        assert selector > engine.num_atoms

    def test_retire_selector_disables_clause(self):
        engine = StableModelEngine(choice_program())
        selector = engine.new_selector()
        engine.add_guarded_clause(selector, [3])
        engine.retire_selector(selector)
        # Even "assuming" the retired selector cannot reactivate it —
        # the solve simply fails on the selector itself, not the atoms.
        assert engine.solve_under([selector, 1]) is None
        assert engine.failed_assumptions == [selector]
        assert engine.solve_under([1]) is not None

    def test_guarded_clause_rejects_non_atom_literals(self):
        engine = StableModelEngine(choice_program())
        selector = engine.new_selector()
        with pytest.raises(ValueError):
            engine.add_guarded_clause(selector, [selector])

    def test_many_selectors_share_one_engine(self):
        # One selector per "candidate question"; each steers the search
        # independently and retirement keeps the solver clean.
        engine = StableModelEngine(choice_program())
        for atom in (1, 2, 3, 4):
            selector = engine.new_selector()
            engine.add_guarded_clause(selector, [-atom])  # "make atom false"
            model = engine.solve_under([selector])
            assert model is not None and atom not in model
            engine.retire_selector(selector)
        assert engine.solve_under() is not None


class TestEntailedValue:
    def test_forced_atoms_reported(self):
        # Fact 1; a 2/3 choice with a constraint killing the 2 branch.
        # The only stable model is {1, 3}.
        program = program_over(
            3,
            [
                GroundRule((1,)),
                GroundRule((2,), body_neg=(3,)),
                GroundRule((3,), body_neg=(2,)),
                GroundRule((), body_pos=(2,)),  # constraint: not 2
            ],
        )
        engine = StableModelEngine(program)
        assert engine.entailed_value(1) == 1
        assert engine.entailed_value(2) == 0
        assert engine.entailed_value(3) == 1

    def test_undetermined_atom_reports_unknown(self):
        engine = StableModelEngine(choice_program())
        for atom in (1, 2, 3, 4):
            assert engine.entailed_value(atom) == -1

    def test_headless_atom_entailed_false(self):
        program = program_over(2, [GroundRule((1,))])
        engine = StableModelEngine(program)
        assert engine.entailed_value(2) == 0

    def test_entailment_strengthens_after_learned_units(self):
        # A unit in the clause database (here ¬1, standing in for a
        # learned unit) forces the complementary choice at top level.
        engine = StableModelEngine(choice_program())
        engine.solver.add_clause([-1])
        assert engine.entailed_value(3) == 1

    def test_agrees_with_exhaustive_enumeration(self):
        rules = [
            GroundRule((1,), body_neg=(2,)),
            GroundRule((2,), body_neg=(1,)),
            GroundRule((3,), body_pos=(1,)),
            GroundRule((3,), body_pos=(2,)),
        ]
        engine = StableModelEngine(program_over(3, rules))
        # Atom 3 holds in every stable model; entailed_value may or may
        # not see it (propagation is incomplete) but must never report a
        # value contradicting some stable model.
        models = [frozenset({1, 3}), frozenset({2, 3})]
        for atom in (1, 2, 3):
            value = engine.entailed_value(atom)
            if value == 1:
                assert all(atom in m for m in models)
            elif value == 0:
                assert all(atom not in m for m in models)


class TestDefineGoal:
    def test_variables_are_allocated_in_one_step(self, monkeypatch):
        """One ``add_vars`` per new goal: a definition variable per new
        multi-atom body, in sorted body order, then the goal."""
        engine = StableModelEngine(choice_program())
        shared = engine.define_goal([[1, 2]])
        grown = []
        real = engine.solver.add_vars

        def counted(count):
            grown.append(count)
            real(count)

        monkeypatch.setattr(engine.solver, "add_vars", counted)
        start = engine.solver.num_vars
        goal = engine.define_goal([[3, 4], [1], [2, 3], [1, 2]])
        assert grown == [3]
        # [1, 2] reuses its definition; [2, 3] and [3, 4] get new ones.
        assert goal == start + 3
        assert engine._goal_bodies[frozenset({2, 3})] == start + 1
        assert engine._goal_bodies[frozenset({3, 4})] == start + 2
        assert engine.define_goal([[1, 2]]) == shared
        assert grown == [3]
        # The goal holds in a model exactly when one of its bodies does.
        models = list(engine.stable_models())
        for model, truths in zip(
            models, engine.known_truths([goal]), strict=True
        ):
            bodies = ({3, 4}, {1}, {2, 3}, {1, 2})
            assert (goal in truths) == any(b <= model for b in bodies)
