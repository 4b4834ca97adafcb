"""The in-repo Tarjan SCC vs networkx, on fixed shapes and random digraphs."""

import random
import sys

import networkx as nx
import pytest

from repro.graphs import nontrivial_sccs, tarjan_scc


def as_partition(components):
    return {frozenset(c) for c in components}


def nx_partition(adjacency):
    graph = nx.DiGraph()
    graph.add_nodes_from(adjacency)
    for node, successors in adjacency.items():
        for succ in successors:
            graph.add_edge(node, succ)
    return {frozenset(c) for c in nx.strongly_connected_components(graph)}


class TestFixedShapes:
    def test_empty(self):
        assert tarjan_scc({}) == []

    def test_singletons_no_edges(self):
        assert as_partition(tarjan_scc({1: [], 2: []})) == {
            frozenset({1}),
            frozenset({2}),
        }

    def test_chain_is_all_singletons(self):
        adjacency = {1: [2], 2: [3], 3: []}
        assert as_partition(tarjan_scc(adjacency)) == {
            frozenset({1}), frozenset({2}), frozenset({3}),
        }

    def test_cycle_is_one_component(self):
        adjacency = {1: [2], 2: [3], 3: [1]}
        assert as_partition(tarjan_scc(adjacency)) == {frozenset({1, 2, 3})}

    def test_two_cycles_bridged(self):
        adjacency = {1: [2], 2: [1, 3], 3: [4], 4: [3]}
        assert as_partition(tarjan_scc(adjacency)) == {
            frozenset({1, 2}),
            frozenset({3, 4}),
        }

    def test_neighbor_only_nodes_are_included(self):
        # 2 appears only as a successor: treated as edgeless.
        assert as_partition(tarjan_scc({1: [2]})) == {
            frozenset({1}),
            frozenset({2}),
        }

    def test_self_loop_is_singleton_component(self):
        assert as_partition(tarjan_scc({1: [1]})) == {frozenset({1})}

    def test_reverse_topological_order(self):
        # Successors come before predecessors in the output.
        adjacency = {1: [2], 2: [3], 3: [2], 4: [1]}
        components = tarjan_scc(adjacency)
        position = {}
        for index, component in enumerate(components):
            for node in component:
                position[node] = index
        assert position[3] < position[1] < position[4]
        assert position[2] == position[3]

    def test_deep_chain_does_not_recurse(self):
        depth = sys.getrecursionlimit() + 500
        adjacency = {i: [i + 1] for i in range(depth)}
        components = tarjan_scc(adjacency)
        assert len(components) == depth + 1

    def test_deep_cycle_is_one_component(self):
        depth = sys.getrecursionlimit() + 500
        adjacency = {i: [(i + 1) % depth] for i in range(depth)}
        components = tarjan_scc(adjacency)
        assert len(components) == 1 and len(components[0]) == depth

    def test_nontrivial_sccs_filters_singletons(self):
        adjacency = {1: [2], 2: [1], 3: [1]}
        assert as_partition(nontrivial_sccs(adjacency)) == {frozenset({1, 2})}


@pytest.mark.parametrize("seed", range(30))
def test_random_digraphs_match_networkx(seed):
    rng = random.Random(seed)
    num_nodes = rng.randint(1, 40)
    num_edges = rng.randint(0, 3 * num_nodes)
    adjacency = {node: [] for node in range(num_nodes)}
    for _ in range(num_edges):
        adjacency[rng.randrange(num_nodes)].append(rng.randrange(num_nodes))
    assert as_partition(tarjan_scc(adjacency)) == nx_partition(adjacency)


@pytest.mark.parametrize("seed", range(10))
def test_random_sparse_key_digraphs_match_networkx(seed):
    """Adjacency with successor-only nodes (not every node is a key)."""
    rng = random.Random(1000 + seed)
    num_nodes = rng.randint(2, 30)
    adjacency = {}
    for node in range(0, num_nodes, 2):  # only even nodes are keys
        adjacency[node] = [
            rng.randrange(num_nodes) for _ in range(rng.randint(0, 4))
        ]
    reachable = set(adjacency)
    for successors in adjacency.values():
        reachable.update(successors)
    partition = as_partition(tarjan_scc(adjacency))
    assert {n for c in partition for n in c} == reachable
    assert partition == {
        c
        for c in nx_partition(
            {n: adjacency.get(n, []) for n in reachable}
        )
    }
