"""Tests for the ground XR program builders."""

import pytest

from repro.asp.reasoning import decide_family
from repro.asp.stable import StableModelEngine
from repro.parser import parse_mapping
from repro.reduction import reduce_mapping
from repro.relational import Fact, Instance
from repro.xr.exchange import build_exchange_data
from repro.xr.program import (
    build_figure1_program,
    build_repair_program,
    build_xr_program,
)
from repro.xr.subscripts import deleted, remains


def f(rel, *args):
    return Fact(rel, args)


def ids(data, *facts):
    """A support set as :func:`~repro.xr.queries.ground_query` yields it:
    the facts' ids."""
    return tuple(map(data.fact_ids.__getitem__, facts))


def key_data(facts):
    mapping = parse_mapping(
        """
        SOURCE R/2. TARGET P/2.
        R(x, y) -> P(x, y).
        P(x, y), P(x, z) -> y = z.
        """
    )
    reduced = reduce_mapping(mapping)
    return build_exchange_data(reduced.gav, Instance(facts))


class TestRepairProgram:
    def test_stable_models_are_repairs(self):
        data = key_data([f("R", "a", "b"), f("R", "a", "c"), f("R", "d", "e")])
        xr = build_repair_program(data)
        models = list(StableModelEngine(xr.program).stable_models())
        assert len(models) == 2
        deletions = {
            frozenset(
                fact
                for fact in (f("R", "a", "b"), f("R", "a", "c"))
                if xr.program.atoms.id_of(deleted(fact)) in model
            )
            for model in models
        }
        assert deletions == {
            frozenset({f("R", "a", "b")}),
            frozenset({f("R", "a", "c")}),
        }

    def test_non_suspect_sources_not_guessed(self):
        data = key_data([f("R", "a", "b"), f("R", "a", "c"), f("R", "d", "e")])
        xr = build_repair_program(data)
        assert xr.program.atoms.id_of(deleted(f("R", "d", "e"))) is None
        assert xr.program.atoms.id_of(remains(f("R", "d", "e"))) is not None

    def test_consistent_instance_single_model(self):
        data = key_data([f("R", "a", "b")])
        xr = build_repair_program(data)
        models = list(StableModelEngine(xr.program).stable_models())
        assert len(models) == 1
        (model,) = models
        assert xr.program.atoms.id_of(remains(f("P", "a", "b"))) in model

    def test_query_groundings_become_rules(self):
        data = key_data([f("R", "a", "b"), f("R", "a", "c")])
        candidate = f("__q_q", ("a",))
        xr = build_repair_program(
            data,
            query_groundings=[
                (candidate, ids(data, f("P", "a", "b"))),
                (candidate, ids(data, f("P", "a", "c"))),
            ],
        )
        verdicts = decide_family(xr.program, xr.query_atoms.values())
        # One support per repair.
        assert xr.query_atoms[candidate] in verdicts.accepted

    def test_safe_support_trivially_certain(self):
        data = key_data([f("R", "a", "b")])
        candidate = f("__q_q", ("a",))
        xr = build_repair_program(
            data,
            query_groundings=[(candidate, ids(data, f("P", "a", "b")))],
            focus_ids=set(),
            safe_ids=set(ids(data, *data.chased)),
        )
        assert candidate in xr.trivially_certain

    def test_all_safe_violation_rejected(self):
        data = key_data([f("R", "a", "b"), f("R", "a", "c")])
        with pytest.raises(ValueError, match="unrepairable"):
            build_repair_program(
                data, focus_ids=set(), safe_ids=set(ids(data, *data.chased))
            )


class TestFigure1Program:
    def test_one_of_three_constraints_present(self):
        data = key_data([f("R", "a", "b"), f("R", "a", "c")])
        xr = build_figure1_program(data)
        constraints = [r for r in xr.program.rules if r.is_constraint()]
        # 3 per target fact (2 P facts + EQ machinery facts).
        assert len(constraints) >= 6

    def test_stable_models_match_repairs_on_single_level(self):
        data = key_data([f("R", "a", "b"), f("R", "a", "c")])
        figure1 = build_figure1_program(data)
        repair = build_repair_program(data)
        count_fig1 = len(list(StableModelEngine(figure1.program).stable_models()))
        count_repair = len(list(StableModelEngine(repair.program).stable_models()))
        assert count_fig1 == count_repair == 2

    def test_disjunctive_deletion_rules_emitted(self):
        data = key_data([f("R", "a", "b"), f("R", "a", "c")])
        xr = build_figure1_program(data)
        assert any(r.is_disjunctive() for r in xr.program.rules)


class TestDispatch:
    def test_dispatch(self):
        data = key_data([f("R", "a", "b")])
        assert build_xr_program(data, encoding="repair").program is not None
        assert build_xr_program(data, encoding="figure1").program is not None
        with pytest.raises(ValueError):
            build_xr_program(data, encoding="nope")


class TestQueryAtomInvariants:
    """Pins the contract the segmentary engine's hoisted trivially-certain
    acceptance relies on: every trivially-certain candidate also appears in
    ``query_atoms`` (it is registered first, then classified)."""

    def groundings(self, data):
        candidate = f("__q_q", ("a",))
        return candidate, [
            (candidate, ids(data, f("P", "a", "b"))),
            (candidate, ids(data, f("P", "a", "c"))),
        ]

    @pytest.mark.parametrize("encoding", ["repair", "figure1"])
    def test_trivially_certain_subset_of_query_atoms(self, encoding):
        data = key_data([f("R", "a", "b"), f("R", "a", "c")])
        _, groundings = self.groundings(data)
        xr = build_xr_program(data, query_groundings=groundings, encoding=encoding)
        assert xr.trivially_certain <= set(xr.query_atoms)

    def test_safe_support_registered_and_trivially_certain(self):
        data = key_data([f("R", "a", "b")])
        candidate = f("__q_q", ("a",))
        xr = build_repair_program(
            data,
            query_groundings=[(candidate, ids(data, f("P", "a", "b")))],
            focus_ids=set(),
            safe_ids=set(ids(data, *data.chased)),
        )
        # Both registrations happen: the atom exists AND is classified.
        assert candidate in xr.query_atoms
        assert candidate in xr.trivially_certain
        assert xr.trivially_certain <= set(xr.query_atoms)
