"""Stored stable models: a kept engine decides from what it already found.

Every stable model a :class:`StableModelEngine` search returns is
remembered (up to :data:`MAX_KNOWN_MODELS`), and
:func:`decide_family` harvests those models before any search.  These
tests check that a kept engine answers exactly as a fresh one and as
brute force, that a question asked again takes no search, and that the
bound holds without costing a verdict.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.asp.reasoning import decide_family
from repro.asp.stable import MAX_KNOWN_MODELS, StableModelEngine
from repro.asp.syntax import GroundRule
from tests.test_asp.reference import brute_stable, program_over

MODES = ("cautious", "brave")


def stored(engine) -> list[frozenset[int]]:
    """The engine's stored models, as head-atom sets."""
    return list(map(frozenset, engine.known_truths(engine.head_atoms)))


def expected(models, bodies, mode) -> bool:
    holds = [any(set(body) <= model for body in bodies) for model in models]
    return all(holds) if mode == "cautious" else any(holds)


def choice_pairs(pairs: int) -> list[GroundRule]:
    """``a ← ¬b, b ← ¬a`` per pair: 2**pairs stable models."""
    rules = []
    for low in range(1, 2 * pairs, 2):
        rules.append(GroundRule((low,), body_neg=(low + 1,)))
        rules.append(GroundRule((low + 1,), body_neg=(low,)))
    return rules


def choice_models(pairs: int) -> list[frozenset[int]]:
    return [
        frozenset(2 * index + 1 + bit for index, bit in enumerate(bits))
        for bits in itertools.product((0, 1), repeat=pairs)
    ]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_kept_engine_matches_fresh_engines_and_brute_force(data):
    """Random goal sets asked in sequence, in both modes, on one kept
    engine: each verdict equals a fresh engine's and brute force's, and
    asking the same goals again on the kept engine takes no search."""
    num_atoms = data.draw(st.integers(1, 5))
    atom = st.integers(1, num_atoms)
    rules = [
        GroundRule(
            tuple(data.draw(st.lists(atom, min_size=1, max_size=2, unique=True))),
            tuple(data.draw(st.lists(atom, max_size=2, unique=True))),
            tuple(data.draw(st.lists(atom, max_size=2, unique=True))),
        )
        for _ in range(data.draw(st.integers(0, 8)))
    ]
    questions = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(MODES),
                st.lists(
                    st.lists(st.lists(atom, max_size=3), max_size=3),
                    min_size=1,
                    max_size=4,
                ),
            ),
            min_size=1,
            max_size=5,
        )
    )
    models = brute_stable(num_atoms, rules)
    kept = StableModelEngine(program_over(num_atoms, rules))
    for mode, goal_bodies in questions:
        goals = [kept.define_goal(bodies) for bodies in goal_bodies]
        verdicts = decide_family(None, goals, mode=mode, engine=kept)
        fresh = StableModelEngine(program_over(num_atoms, rules))
        fresh_goals = [fresh.define_goal(bodies) for bodies in goal_bodies]
        reference = decide_family(None, fresh_goals, mode=mode, engine=fresh)
        assert verdicts.no_model == reference.no_model == (not models)
        by_goal = dict(zip(fresh_goals, goals))
        assert verdicts.accepted == {by_goal[g] for g in reference.accepted}
        assert verdicts.rejected == {by_goal[g] for g in reference.rejected}
        if models:
            for goal, bodies in zip(goals, goal_bodies):
                assert (goal in verdicts.accepted) == expected(
                    models, bodies, mode
                )
        assert not verdicts.undecided
        again = decide_family(None, goals, mode=mode, engine=kept)
        assert (again.accepted, again.rejected) == (
            verdicts.accepted,
            verdicts.rejected,
        )
        assert again.stats["propagations"] == 0
        assert again.stats["family_models"] == 0
    assert len(stored(kept)) <= MAX_KNOWN_MODELS
    assert set(stored(kept)) <= models


class TestHarvest:
    def test_stored_models_decide_goals_defined_after_them(self):
        engine = StableModelEngine(program_over(6, choice_pairs(3)))
        first = decide_family(None, [1, 3, 5], mode="brave", engine=engine)
        assert first.accepted == {1, 3, 5} and first.stats["family_models"]
        found = stored(engine)
        assert found and set(found) <= set(choice_models(3))
        # A goal defined now, over atoms of the stored models.
        goal = engine.define_goal([[1, 3], [2, 4, 6]])
        truths = list(engine.known_truths([goal, 2]))
        assert len(truths) == len(found)
        for model, true in zip(found, truths):
            assert (goal in true) == ({1, 3} <= model or {2, 4, 6} <= model)
            assert (2 in true) == (2 in model)

    def test_stored_model_skips_the_existence_solve(self):
        engine = StableModelEngine(program_over(4, choice_pairs(2)))
        decide_family(None, [1], engine=engine)
        calls = []
        real = engine.solve_under

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        engine.solve_under = counted
        verdicts = decide_family(None, [1, 2, 3, 4], engine=engine)
        assert verdicts.rejected == {1, 2, 3, 4}
        assert verdicts.stats["known_models"] >= 1
        # Rejections came from stored models; every search that ran was
        # a steering round (assumptions given), never an existence solve.
        assert all(args and args[0] for args in calls)


class TestReasking:
    def test_repeated_question_takes_no_propagation(self):
        engine = StableModelEngine(program_over(8, choice_pairs(4)))
        goals = [
            engine.define_goal(bodies)
            for bodies in ([[1], [2]], [[1, 3]], [[5, 7], [6]], [[2, 4, 6, 8]])
        ]
        for mode in MODES:
            first = decide_family(None, goals, mode=mode, engine=engine)
            assert first.stats["propagations"] > 0
            again = decide_family(None, goals, mode=mode, engine=engine)
            assert (again.accepted, again.rejected) == (
                first.accepted,
                first.rejected,
            )
            assert again.stats["propagations"] == 0
            assert again.stats["decisions"] == 0
            assert again.stats["family_models"] == 0
        # Cautious: only the tautology [1] ∨ [2] holds in every model.
        cautious = decide_family(None, goals, engine=engine)
        assert cautious.accepted == {goals[0]}


    def test_proven_defaults_become_units(self):
        """``3 ∨ 2.  1 ← 2, not 1, not 3.`` has the one stable model
        {3}.  Brave rejects 1 and 2 by the last steering round; those
        verdicts are installed as unit clauses, so the entailment pass
        answers them again — the learned clauses alone do not."""
        rules = [GroundRule((3, 2)), GroundRule((1,), (2,), (1, 3))]
        engine = StableModelEngine(program_over(3, rules))
        first = decide_family(None, [1, 2, 3], mode="brave", engine=engine)
        assert (first.accepted, first.rejected) == ({3}, {1, 2})
        assert engine.entailed_value(1) == engine.entailed_value(2) == 0
        again = decide_family(None, [1, 2, 3], mode="brave", engine=engine)
        assert (again.accepted, again.rejected) == ({3}, {1, 2})
        assert again.stats["propagations"] == 0
        assert again.stats["core_skips"] == 2


class TestBound:
    def test_bound_is_pinned(self):
        assert MAX_KNOWN_MODELS == 32

    def test_enumeration_fills_the_list_to_the_bound(self):
        engine = StableModelEngine(program_over(12, choice_pairs(6)))
        found = list(engine.stable_models())
        assert len(found) == 64
        assert stored(engine) == found[:MAX_KNOWN_MODELS]

    def test_answers_stay_exact_once_the_list_is_full(self):
        pairs = 6
        models = choice_models(pairs)
        engine = StableModelEngine(program_over(2 * pairs, choice_pairs(pairs)))
        # Every full assignment as a brave goal: each needs its own model.
        full = [engine.define_goal([sorted(m)]) for m in models]
        verdicts = decide_family(None, full, mode="brave", engine=engine)
        assert verdicts.accepted == set(full)
        assert len(stored(engine)) == MAX_KNOWN_MODELS
        rng = random.Random(7)
        atoms = range(1, 2 * pairs + 1)
        for _ in range(40):
            goal_bodies = [
                [
                    rng.sample(atoms, rng.randint(1, 3))
                    for _b in range(rng.randint(1, 3))
                ]
                for _g in range(rng.randint(1, 6))
            ]
            mode = rng.choice(MODES)
            goals = [engine.define_goal(bodies) for bodies in goal_bodies]
            verdicts = decide_family(None, goals, mode=mode, engine=engine)
            for goal, bodies in zip(goals, goal_bodies):
                assert (goal in verdicts.accepted) == expected(
                    models, bodies, mode
                )
            assert len(stored(engine)) == MAX_KNOWN_MODELS
