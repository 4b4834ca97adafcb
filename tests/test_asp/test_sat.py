"""Tests for the CDCL SAT solver."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.asp.sat import SatSolver


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return True
    return False


def model_satisfies(model, clauses):
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert SatSolver(3).solve()

    def test_unit_propagation(self):
        solver = SatSolver(2)
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        assert solver.solve()
        assert solver.model()[1] and solver.model()[2]

    def test_trivial_unsat(self):
        solver = SatSolver(1)
        solver.add_clause([1])
        assert not solver.add_clause([-1])
        assert not solver.solve()

    def test_empty_clause_is_unsat(self):
        solver = SatSolver(1)
        assert not solver.add_clause([])

    def test_tautological_clause_ignored(self):
        solver = SatSolver(1)
        assert solver.add_clause([1, -1])
        assert solver.solve()

    def test_duplicate_literals_merged(self):
        solver = SatSolver(1)
        solver.add_clause([1, 1, 1])
        assert solver.solve()
        assert solver.model()[1]

    def test_out_of_range_literal_rejected(self):
        with pytest.raises(ValueError):
            SatSolver(1).add_clause([5])

    def test_new_var(self):
        solver = SatSolver(0)
        v = solver.new_var()
        assert v == 1
        solver.add_clause([-v])
        assert solver.solve()
        assert not solver.model()[v]


class TestSearch:
    def test_pigeonhole_4_3_unsat(self):
        pigeons, holes = 4, 3
        solver = SatSolver(pigeons * holes)
        var = lambda p, h: p * holes + h + 1
        for p in range(pigeons):
            solver.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        assert not solver.solve()

    def test_pigeonhole_3_3_sat(self):
        pigeons = holes = 3
        solver = SatSolver(pigeons * holes)
        var = lambda p, h: p * holes + h + 1
        for p in range(pigeons):
            solver.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        assert solver.solve()

    def test_phase_saving_biases_model(self):
        solver = SatSolver(3)
        solver.add_clause([1, 2, 3])
        for v in (1, 2, 3):
            solver.set_default_phase(v, False)
        assert solver.solve()
        assert sum(solver.model()[1:]) == 1  # minimal-ish: one decision flip


class TestIncremental:
    def test_assumptions(self):
        solver = SatSolver(3)
        solver.add_clause([1, 2])
        solver.add_clause([-1, 3])
        assert solver.solve([-2])
        assert solver.model()[1] and solver.model()[3]
        assert not solver.solve([-2, -3])
        assert solver.solve()  # assumptions do not persist

    def test_add_clause_between_solves(self):
        solver = SatSolver(2)
        solver.add_clause([1, 2])
        assert solver.solve()
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert not solver.solve()

    def test_add_clause_after_model_found(self):
        # Clauses may be installed while the trail is still populated.
        solver = SatSolver(3)
        solver.add_clause([1, 2, 3])
        assert solver.solve()
        model = solver.model()
        exclusion = [-v if model[v] else v for v in (1, 2, 3)]
        solver.add_clause(exclusion)
        count = 1
        while solver.solve():
            model = solver.model()
            solver.add_clause([-v if model[v] else v for v in (1, 2, 3)])
            count += 1
        assert count == 7  # all assignments except all-false

    def test_statistics(self):
        solver = SatSolver(2)
        solver.add_clause([1, 2])
        solver.solve()
        stats = solver.statistics
        assert stats["vars"] == 2
        assert stats["propagations"] >= 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_formulas_match_brute_force(data):
    num_vars = data.draw(st.integers(1, 7))
    num_clauses = data.draw(st.integers(1, 22))
    clauses = []
    for _ in range(num_clauses):
        width = data.draw(st.integers(1, min(3, num_vars)))
        variables = data.draw(
            st.lists(
                st.integers(1, num_vars),
                min_size=width,
                max_size=width,
                unique=True,
            )
        )
        clauses.append(
            [v if data.draw(st.booleans()) else -v for v in variables]
        )
    solver = SatSolver(num_vars)
    ok = all(solver.add_clause(c) for c in clauses)
    result = ok and solver.solve()
    assert result == brute_force_sat(num_vars, clauses)
    if result:
        assert model_satisfies(solver.model(), clauses)


def pigeonhole(pigeons, holes):
    """PHP(p, h) clauses over vars v(i, j) = (i-1)*holes + j; UNSAT if p > h."""
    def v(i, j):
        return (i - 1) * holes + j

    clauses = [[v(i, j) for j in range(1, holes + 1)] for i in range(1, pigeons + 1)]
    for j in range(1, holes + 1):
        for i in range(1, pigeons + 1):
            for k in range(i + 1, pigeons + 1):
                clauses.append([-v(i, j), -v(k, j)])
    return pigeons * holes, clauses


class TestDecisionHeap:
    """The lazy VSIDS heap must repopulate itself when staleness exhausts it,
    not fall back to a per-decision linear scan."""

    def test_exhausted_heap_is_rebuilt(self):
        solver = SatSolver(8)
        solver.activity[5] = 3.0
        solver.activity[2] = 1.0
        solver._order.clear()  # every heap entry gone stale
        assert abs(solver._decide()) == 5  # still picks max activity
        # The rebuild reinstated the other unassigned variables, so the
        # next decision is an ordinary heap pop.
        assert len(solver._order) == 7
        assert abs(solver._decide()) == 2

    def test_all_stale_entries_trigger_rebuild(self):
        solver = SatSolver(4)
        solver.activity[3] = 2.0
        solver._order = [(0.0, 3)]  # outdated activity: discarded on pop
        assert abs(solver._decide()) == 3
        assert solver._order  # repopulated, not left empty

    def test_rebuild_with_everything_assigned_returns_zero(self):
        solver = SatSolver(2)
        solver.add_clause([1])
        solver.add_clause([2])
        assert solver.solve()
        solver._order.clear()
        assert solver._decide() == 0

    def test_restart_heavy_unsat_instance(self):
        num_vars, clauses = pigeonhole(6, 5)
        solver = SatSolver(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        assert not solver.solve()
        # PHP(6,5) needs enough conflicts to cross the first Luby restart
        # budget, so the restart path (mass backtracking, heap churn) ran.
        assert solver._conflicts_total > 64

    def test_solve_correct_after_manual_heap_exhaustion(self):
        rng = random.Random(7)
        num_vars = 12
        clauses = [
            [rng.choice([-1, 1]) * v for v in rng.sample(range(1, num_vars + 1), 3)]
            for _ in range(40)
        ]
        expected = brute_force_sat(num_vars, clauses)
        solver = SatSolver(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        solver._order.clear()  # start from a fully stale heap
        result = solver.solve()
        assert result == expected
        if result:
            assert model_satisfies(solver.model(), clauses)

    @pytest.mark.parametrize("seed", range(6))
    def test_compaction_keeps_every_decision(self, seed):
        """A kept solver drops its heap between solves (``compact``) and
        rebuilds it on the next solve: the same models, conflicts and
        decisions as a solver that kept its lazy heap, solve after solve
        (new clauses and variables in between included)."""
        rng = random.Random(seed)
        num_vars = 30

        def clause():
            return [
                rng.choice([-1, 1]) * v
                for v in rng.sample(range(1, num_vars + 1), 3)
            ]

        base = [clause() for _ in range(110)]
        compacted, lazy = SatSolver(num_vars), SatSolver(num_vars)
        for solver in (compacted, lazy):
            solver.add_clauses(base)
        for _round in range(8):
            assumptions = [
                rng.choice([-1, 1]) * v for v in rng.sample(range(1, num_vars + 1), 2)
            ]
            results = [s.solve(assumptions) for s in (compacted, lazy)]
            assert results[0] == results[1]
            if results[0]:
                assert compacted.model() == lazy.model()
            assert compacted.statistics == lazy.statistics
            compacted.compact()
            assert compacted._order is None
            extra = clause()
            for solver in (compacted, lazy):
                solver.new_var()
                solver.add_clause(extra)
