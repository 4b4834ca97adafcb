"""Weak acyclicity and existential rank vs naive references on random
dependency sets.

The production checks (:mod:`repro.dependencies.acyclicity`) work on the
SCCs of the position graph; the references below re-implement the
Fagin–Kolaitis–Miller–Popa definitions as literally as possible — build the
edges, then look for a special edge ``u → v`` with a path back from ``v``
to ``u``, and take a position's rank as the most special edges on any
simple path reaching it, by enumerating the paths.  Agreement on random
(possibly cyclic) tgd sets is the test.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dependencies.acyclicity import existential_rank, is_weakly_acyclic
from repro.dependencies.tgds import TGD
from repro.fuzz.generator import random_dependency_set
from repro.parser import parse_mapping
from repro.relational.terms import Variable


def naive_edges(tgds) -> tuple[set[tuple], set[tuple]]:
    """The regular and the special edges of the position graph."""
    regular: set[tuple] = set()
    special: set[tuple] = set()
    for tgd in tgds:
        body_positions: dict[Variable, set[tuple[str, int]]] = {}
        for atom in tgd.body:
            for index, term in enumerate(atom.terms):
                if isinstance(term, Variable):
                    body_positions.setdefault(term, set()).add(
                        (atom.relation, index)
                    )
        for atom in tgd.head:
            for index, term in enumerate(atom.terms):
                if not isinstance(term, Variable):
                    continue
                target = (atom.relation, index)
                if term in tgd.existential:
                    for frontier_var in tgd.frontier:
                        for source in body_positions.get(frontier_var, ()):
                            special.add((source, target))
                else:
                    for source in body_positions.get(term, ()):
                        regular.add((source, target))
    return regular, special


def naive_is_weakly_acyclic(tgds) -> bool:
    regular, special = naive_edges(tgds)
    adjacency: dict[tuple, set[tuple]] = {}
    for source, target in regular | special:
        adjacency.setdefault(source, set()).add(target)

    def reaches(origin, goal) -> bool:
        seen, stack = set(), [origin]
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency.get(node, ()))
        return False

    return not any(reaches(target, source) for source, target in special)


def naive_existential_rank(tgds) -> dict[tuple, int]:
    """The most special edges on any simple path reaching each position
    (positions no edge reaches are left out: their rank is 0)."""
    regular, special = naive_edges(tgds)
    successors: dict[tuple, list[tuple[tuple, int]]] = {}
    for source, target in regular | special:
        weight = 1 if (source, target) in special else 0
        successors.setdefault(source, []).append((target, weight))
    rank: dict[tuple, int] = {}

    def walk(node, path, specials) -> None:
        for target, weight in successors.get(node, ()):
            if target in path:
                continue
            reached = specials + weight
            if reached > rank.get(target, -1):
                rank[target] = reached
            path.add(target)
            walk(target, path, reached)
            path.discard(target)

    for start in successors:
        walk(start, {start}, 0)
    return rank


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 1_000_000))
def test_checker_matches_naive_reference(seed):
    tgds = random_dependency_set(random.Random(f"wa:{seed}"))
    assert is_weakly_acyclic(tgds) == naive_is_weakly_acyclic(tgds), (
        f"seed={seed}: " + "; ".join(map(repr, tgds))
    )


def test_both_agree_on_known_cases():
    gav = parse_mapping(
        "SOURCE R/2. TARGET T/2, U/2. R(x, y) -> T(x, y)."
    ).st_tgds
    assert is_weakly_acyclic(gav) and naive_is_weakly_acyclic(gav)

    # A regular self-loop is fine ...
    copy = TGD(
        [parse_mapping("SOURCE R/2. TARGET T/2. R(x, y) -> T(x, y).").st_tgds[0].head[0]],
        [parse_mapping("SOURCE R/2. TARGET T/2. R(x, y) -> T(y, x).").st_tgds[0].head[0]],
    )
    assert is_weakly_acyclic([copy]) and naive_is_weakly_acyclic([copy])

    # ... but an existential feeding its own body position is not.
    cyclic = parse_mapping(
        "SOURCE R/1. TARGET T/2. R(x) -> T(x, x). T(x, y) -> T(y, z)."
    ).target_tgds
    assert not is_weakly_acyclic(cyclic)
    assert not naive_is_weakly_acyclic(cyclic)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 1_000_000), st.integers(2, 4), st.integers(2, 6))
def test_rank_matches_naive_longest_path(seed, relations, count):
    tgds = random_dependency_set(
        random.Random(f"rank:{seed}"), relations=relations, count=count
    )
    if not naive_is_weakly_acyclic(tgds):
        with pytest.raises(ValueError):
            existential_rank(tgds)
        return
    ranks = existential_rank(tgds)
    expected = naive_existential_rank(tgds)
    assert set(expected) <= set(ranks), f"seed={seed}"
    assert {pos: rank for pos, rank in ranks.items() if rank} == {
        pos: rank for pos, rank in expected.items() if rank
    }, f"seed={seed}: " + "; ".join(map(repr, tgds))


def test_rank_reference_sees_deep_chains():
    """The random sets reach rank 2 and above, so the comparison above
    covers chained existentials, not only rank 0/1."""
    deepest = 0
    for seed in range(400):
        tgds = random_dependency_set(random.Random(f"rank:{seed}"), count=6)
        if naive_is_weakly_acyclic(tgds):
            deepest = max(deepest, *existential_rank(tgds).values(), 0)
    assert deepest >= 2
