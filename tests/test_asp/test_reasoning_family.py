"""Family solving (`decide_family`) against brute-force stable models.

One engine, assumption-guarded steering, model harvesting, level-0
entailment skips, per-candidate budget degradation — all checked against
brute-force stable-model enumeration.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asp.reasoning import FamilyVerdicts, decide_family
from repro.asp.stable import StableModelEngine
from repro.asp.syntax import GroundRule
from repro.runtime.budget import SolveBudgetExceeded
from tests.test_asp.reference import (
    brute_consequences,
    brute_stable,
    program_over,
)


class TestCautiousMode:
    def test_matches_reference_on_disjunction(self):
        rules = [
            GroundRule((1, 2)),
            GroundRule((3,), (1,)),
            GroundRule((3,), (2,)),
        ]
        verdicts = decide_family(program_over(3, rules), [1, 2, 3])
        assert verdicts.accepted == frozenset({3})
        assert verdicts.rejected == frozenset({1, 2})
        assert not verdicts.undecided and not verdicts.no_model

    def test_no_stable_models_flagged(self):
        verdicts = decide_family(
            program_over(1, [GroundRule((1,), (), (1,))]), [1]
        )
        assert verdicts.no_model
        assert not verdicts.accepted and not verdicts.rejected
        assert not verdicts.undecided

    def test_every_atom_gets_a_verdict(self):
        rules = [
            GroundRule((1,), body_neg=(2,)),
            GroundRule((2,), body_neg=(1,)),
            GroundRule((3,), (1,)),
            GroundRule((3,), (2,)),
            GroundRule((4,)),
        ]
        verdicts = decide_family(program_over(5, rules), [1, 2, 3, 4, 5])
        assert verdicts.accepted == frozenset({3, 4})
        assert verdicts.rejected == frozenset({1, 2, 5})

    def test_entailment_skips_counted_for_forced_atoms(self):
        # Atom 1 is a fact, atom 3 has no rule: both are decided by the
        # clause database at level 0, no steering round needed.
        rules = [GroundRule((1,))]
        verdicts = decide_family(program_over(3, rules), [1, 3])
        assert verdicts.accepted == frozenset({1})
        assert verdicts.rejected == frozenset({3})
        assert verdicts.stats["core_skips"] == 2


class TestBraveMode:
    def test_matches_reference_on_disjunction(self):
        verdicts = decide_family(
            program_over(2, [GroundRule((1, 2))]), [1, 2], mode="possible"
        )
        assert verdicts.accepted == frozenset({1, 2})
        assert not verdicts.rejected

    def test_underivable_atom_rejected(self):
        verdicts = decide_family(
            program_over(2, [GroundRule((1,))]), [1, 2], mode="brave"
        )
        assert verdicts.accepted == frozenset({1})
        assert verdicts.rejected == frozenset({2})

    def test_no_stable_models_flagged(self):
        verdicts = decide_family(
            program_over(1, [GroundRule((1,), (), (1,))]), [1], mode="possible"
        )
        assert verdicts.no_model

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            decide_family(program_over(1, []), [1], mode="certain")


class TestBudgetDegradation:
    class _FiringDeadline:
        """A deadline that allows ``grace`` checks, then fires forever."""

        def __init__(self, grace):
            self.grace = grace
            self.checks = 0

        def check(self):
            self.checks += 1
            if self.checks > self.grace:
                raise SolveBudgetExceeded("test budget")

    def choice_rules(self, pairs):
        rules = []
        for low in range(1, 2 * pairs, 2):
            rules.append(GroundRule((low,), body_neg=(low + 1,)))
            rules.append(GroundRule((low + 1,), body_neg=(low,)))
        return rules

    def test_partial_verdicts_survive_budget(self):
        # Enough grace to find the first model, not enough to finish all
        # steering rounds: whatever was decided must be exact, the rest
        # undecided — never a wrong verdict.
        atoms = list(range(1, 9))
        rules = self.choice_rules(4)
        reference = brute_stable(8, rules)
        for grace in range(1, 40):
            deadline = self._FiringDeadline(grace)
            verdicts = decide_family(
                program_over(8, rules), atoms, deadline=deadline
            )
            for atom in verdicts.accepted:
                assert all(atom in m for m in reference)
            for atom in verdicts.rejected:
                assert any(atom not in m for m in reference)
            assert (
                set(verdicts.accepted)
                | set(verdicts.rejected)
                | set(verdicts.undecided)
            ) == set(atoms)
            if not verdicts.undecided:
                break
        else:
            pytest.fail("budget never allowed the family to finish")

    def test_interrupted_property(self):
        verdicts = FamilyVerdicts(
            accepted=frozenset(), rejected=frozenset(), undecided=frozenset({3})
        )
        assert verdicts.interrupted
        assert not FamilyVerdicts(frozenset(), frozenset()).interrupted


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_family_matches_reference_implementations(data):
    num_atoms = data.draw(st.integers(1, 5))
    num_rules = data.draw(st.integers(0, 8))
    rules = []
    for _ in range(num_rules):
        head_width = data.draw(st.integers(1, min(2, num_atoms)))
        head = tuple(
            data.draw(
                st.lists(
                    st.integers(1, num_atoms),
                    min_size=head_width,
                    max_size=head_width,
                    unique=True,
                )
            )
        )
        body_pool = [a for a in range(1, num_atoms + 1) if a not in head]
        body_pos = tuple(
            data.draw(
                st.lists(st.sampled_from(body_pool or [1]), max_size=2, unique=True)
            )
            if body_pool
            else []
        )
        body_neg = tuple(
            data.draw(
                st.lists(st.sampled_from(body_pool or [1]), max_size=2, unique=True)
            )
            if body_pool
            else []
        )
        rules.append(GroundRule(head, body_pos, body_neg))
    atoms = list(range(1, num_atoms + 1))

    reference = brute_consequences(num_atoms, rules, atoms)
    family_c = decide_family(program_over(num_atoms, rules), atoms)
    family_b = decide_family(program_over(num_atoms, rules), atoms, mode="brave")

    if reference is None:
        assert family_c.no_model and family_b.no_model
        return
    cautious, brave = reference
    assert not family_c.no_model and not family_b.no_model
    assert family_c.accepted == cautious
    assert family_c.rejected == frozenset(atoms) - cautious
    assert family_b.accepted == brave
    assert family_b.rejected == frozenset(atoms) - brave
    assert not family_c.undecided and not family_b.undecided


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_goals_on_one_engine_match_the_reference(data):
    """Goal definitions (``q ↔ ∨ body``) added to one engine between
    solves, decided in both modes one after another, agree with brute
    force: the kept engine's learned clauses and earlier goals never
    change a later verdict."""
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
            st.lists(st.lists(atom, max_size=3), max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    models = brute_stable(num_atoms, rules)
    engine = StableModelEngine(program_over(num_atoms, rules))
    for bodies in questions:
        goal = engine.define_goal(bodies)
        assert engine.define_goal(list(reversed(bodies))) == goal
        holds = [any(set(body) <= model for body in bodies) for model in models]
        for mode in ("cautious", "brave"):
            verdicts = decide_family(None, [goal], mode=mode, engine=engine)
            if not models:
                assert verdicts.no_model
                continue
            expected = all(holds) if mode == "cautious" else any(holds)
            assert (goal in verdicts.accepted) == expected
            assert (goal in verdicts.rejected) != expected
