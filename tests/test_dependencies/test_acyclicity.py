"""Tests for the weak acyclicity test (Fagin et al.)."""

import pytest

from repro.dependencies.acyclicity import (
    existential_rank,
    is_weakly_acyclic,
    position_graph,
)
from repro.dependencies.tgds import TGD
from repro.parser import parse_dependency


def tgd(text):
    dep = parse_dependency(text)
    assert isinstance(dep, TGD)
    return dep


class TestWeakAcyclicity:
    def test_full_tgds_are_weakly_acyclic(self):
        deps = [tgd("T(x, y) -> U(y, x)."), tgd("U(x, y) -> T(x, y).")]
        assert is_weakly_acyclic(deps)

    def test_classic_non_weakly_acyclic_example(self):
        # E(x, y) -> ∃z E(y, z): special edge inside a cycle.
        assert not is_weakly_acyclic([tgd("E(x, y) -> E(y, z).")])

    def test_special_edge_without_cycle_is_fine(self):
        assert is_weakly_acyclic([tgd("E(x, y) -> F(y, z).")])

    def test_cycle_through_two_rules(self):
        deps = [tgd("E(x, y) -> F(y, z)."), tgd("F(x, y) -> E(x, y).")]
        assert not is_weakly_acyclic(deps)

    def test_empty_set(self):
        assert is_weakly_acyclic([])

    def test_regular_cycle_is_allowed(self):
        # Copying back and forth without existentials is fine.
        deps = [tgd("E(x, y) -> F(x, y)."), tgd("F(x, y) -> E(y, x).")]
        assert is_weakly_acyclic(deps)


class TestPositionGraph:
    def test_edges_kinds(self):
        graph = position_graph([tgd("E(x, y) -> F(y, z).")])
        kinds = {
            (src, dst): kind
            for src, successors in graph.items()
            for dst, kind in successors.items()
        }
        assert kinds[("E", 1), ("F", 0)] == "regular"
        # Special edges from every frontier-variable position.
        assert kinds[("E", 1), ("F", 1)] == "special"

    def test_special_edge_wins_over_regular(self):
        copy = tgd("E(x) -> F(x).")
        invent = tgd("E(x) -> G(x, z), F(z).")
        for tgds in ([copy, invent], [invent, copy]):
            assert position_graph(tgds)[("E", 0)][("F", 0)] == "special"


class TestExistentialRank:
    def test_rank_zero_without_existentials(self):
        ranks = existential_rank([tgd("E(x, y) -> F(y, x).")])
        assert all(rank == 0 for rank in ranks.values())

    def test_rank_counts_special_depth(self):
        deps = [tgd("E(x, y) -> F(y, z)."), tgd("F(x, y) -> G(y, w).")]
        ranks = existential_rank(deps)
        assert ranks[("F", 1)] == 1
        assert ranks[("G", 1)] == 2

    def test_rank_undefined_when_cyclic(self):
        with pytest.raises(ValueError):
            existential_rank([tgd("E(x, y) -> E(y, z).")])
