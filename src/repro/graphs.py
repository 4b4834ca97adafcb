"""Strongly connected components, the one graph primitive the package needs.

The stable-model engine (:mod:`repro.asp.stable`) takes the SCCs of a
program's positive dependency graph on int-keyed adjacency it already has
in hand, and the weak-acyclicity check
(:mod:`repro.dependencies.acyclicity`) the SCCs of a position graph.  One
iterative Tarjan serves both, so no graph object is materialized per
program build and importing ``repro`` loads no third-party graph library.

This module imports nothing from ``repro``: the dependency layer loads it
while ``repro.dependencies`` is still half-initialized.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence, TypeVar

Node = TypeVar("Node", bound=Hashable)

_NO_EDGES: tuple = ()


def tarjan_scc(adjacency: Mapping[Node, Sequence[Node]]) -> list[list[Node]]:
    """Strongly connected components of a directed graph.

    ``adjacency`` maps a node to its successors.  Nodes appearing only as
    successors are treated as having no outgoing edges.  Components are
    returned in reverse topological order (successors before predecessors),
    as Tarjan's algorithm produces them; the traversal is iterative, so
    deep chains do not hit the recursion limit.
    """
    index_of: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    components: list[list[Node]] = []
    counter = 0

    for root in adjacency:
        if root in index_of:
            continue
        work: list[tuple[Node, int]] = [(root, 0)]
        while work:
            node, edge_index = work.pop()
            if edge_index == 0:
                index_of[node] = counter
                lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            successors = adjacency.get(node, _NO_EDGES)
            descended = False
            for position in range(edge_index, len(successors)):
                successor = successors[position]
                if successor not in index_of:
                    work.append((node, position + 1))
                    work.append((successor, 0))
                    descended = True
                    break
                if successor in on_stack and index_of[successor] < lowlink[node]:
                    lowlink[node] = index_of[successor]
            if descended:
                continue
            if lowlink[node] == index_of[node]:
                component: list[Node] = []
                while True:
                    member = stack.pop()
                    on_stack.remove(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
    return components


def nontrivial_sccs(adjacency: Mapping[Node, Sequence[Node]]) -> list[list[Node]]:
    """The SCCs of size >= 2 (the only ones that can carry a positive loop).

    A self-loop (``a ← a``) also forms a loop, but the callers here operate
    on dependency graphs whose self-loops are tautological rules that were
    already filtered out.
    """
    return [c for c in tarjan_scc(adjacency) if len(c) >= 2]
